// Death tests for the debug invariant validator (common/check.h,
// core/validate.h): each seeded buffer-pool lifecycle violation must abort
// with its diagnostic, the DAG validator must reject a structurally broken
// node, and a clean full-DAG pass must produce zero false positives with the
// validator enabled in every execution mode.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/config.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "core/validate.h"
#include "core/virtual_store.h"
#include "mem/buffer_pool.h"

namespace flashr {
namespace {

// --- Buffer-pool lifecycle seams ------------------------------------------
//
// Each seam runs against a private pool inside the death-test child, with
// the validator enabled only inside the child, so the parent's global pool
// is never corrupted.

TEST(InvariantDeathTest, DoubleReturnAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        buffer_pool pool;
        pool_debug::seed_double_return(pool);
      },
      "pool buffer returned twice");
}

TEST(InvariantDeathTest, RefcountUnderflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        buffer_pool pool;
        pool_debug::seed_refcount_underflow(pool);
      },
      "never handed out");
}

TEST(InvariantDeathTest, UseAfterReturnAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        buffer_pool pool;
        pool_debug::seed_use_after_return(pool);
      },
      "use-after-return");
}

TEST(InvariantDeathTest, MisalignedBufferAborts) {
  // The 4 KiB alignment contract backs O_DIRECT; a corrupted free-list
  // pointer must abort at get() instead of corrupting I/O silently.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        buffer_pool pool;
        pool_debug::seed_misaligned_buffer(pool);
      },
      "misaligned buffer");
}

// With the validator off the check must be silent: the checks are opt-in and
// the default build pays only a branch. Only the use-after-return seam leaves
// the pool destructible (the other two corrupt the free list for real).
TEST(InvariantDeathTest, SeamSilentWhenDisabled) {
  if (kInvariantBuild) GTEST_SKIP() << "validator forced on at compile time";
  buffer_pool pool;
  pool_debug::seed_use_after_return(pool);
}

// --- DAG structural validation --------------------------------------------

TEST(InvariantDeathTest, MalformedDagAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A sapply node claiming a different ncol than its child: elementwise ops
  // must preserve ncol. Built directly with virtual_store::make because the
  // public GenOp API never constructs such a node.
  dense_matrix leaf = dense_matrix::rnorm(128, 4, 0, 1, 11);
  part_geom bad = leaf.store()->geom();
  bad.ncol = 3;
  genop op;
  op.kind = node_kind::sapply;
  op.u = uop_id::neg;
  auto broken = virtual_store::make(bad, scalar_type::f64, op, {leaf.store()});
  EXPECT_DEATH(
      {
        invariant_scope on;
        dense_matrix(broken).materialize();
      },
      "elementwise op must preserve ncol");
}

TEST(InvariantDeathTest, DanglingChildAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dense_matrix leaf = dense_matrix::rnorm(128, 4, 0, 1, 13);
  genop op;
  op.kind = node_kind::map2;
  op.b = bop_id::add;
  auto broken = virtual_store::make(leaf.store()->geom(), scalar_type::f64,
                                    op, {leaf.store(), nullptr});
  EXPECT_DEATH(
      {
        invariant_scope on;
        dense_matrix(broken).materialize();
      },
      "dangling child");
}

// --- Clean passes: zero false positives -----------------------------------
//
// A representative DAG (elementwise chain, broadcast, sweep, inner product,
// sinks, an external-memory leaf) materialized with the validator enabled in
// each execution mode. Any spurious DCHECK/pool-audit/DAG failure aborts the
// whole test binary, so merely finishing is the assertion; the value checks
// guard against the validator perturbing results.
class InvariantCleanPassTest : public ::testing::TestWithParam<exec_mode> {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.pcache_bytes = 1024;
    o.small_nrow_threshold = 16;
    o.mode = GetParam();
    init(o);
  }
};

TEST_P(InvariantCleanPassTest, FullDagHasNoFalsePositives) {
  invariant_scope on;
  const std::size_t n = 64 * 5 + 17;  // short last partition
  dense_matrix x = dense_matrix::rnorm(n, 3, 0, 1, 42);
  dense_matrix em = conv_store(dense_matrix::rnorm(n, 3, 2, 1, 7),
                               storage::ext_mem);
  dense_matrix y = abs(x * 2.0 + em) + 1.0;
  dense_matrix z =
      sweep_cols(y, col_sums(y) / static_cast<double>(n), bop_id::div);
  dense_matrix g = crossprod(z);  // t(z) %*% z sink
  dense_matrix s = sum(z);
  materialize_all({z, g, s});

  EXPECT_TRUE(std::isfinite(s.scalar()));
  smat gm = g.to_smat();
  ASSERT_EQ(gm.nrow(), 3u);
  ASSERT_EQ(gm.ncol(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(gm(i, j), gm(j, i), 1e-9);

  // Re-materializing an already-materialized DAG must also be clean (the
  // resolved nodes become leaves).
  dense_matrix again = sum(z * z);
  EXPECT_TRUE(std::isfinite(again.scalar()));
}

INSTANTIATE_TEST_SUITE_P(AllModes, InvariantCleanPassTest,
                         ::testing::Values(exec_mode::eager,
                                           exec_mode::mem_fuse,
                                           exec_mode::cache_fuse),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case exec_mode::eager: return "eager";
                             case exec_mode::mem_fuse: return "mem_fuse";
                             default: return "cache_fuse";
                           }
                         });

}  // namespace
}  // namespace flashr
