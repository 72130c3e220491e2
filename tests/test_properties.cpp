// Property sweeps over engine configurations (DESIGN.md invariants 1-7).
//
// These tests pin down the engine's configuration-independence: the same
// computation must give the same answer for every thread count, I/O
// partition size, Pcache size, stripe count and placement policy, and
// generated matrices must be identical under all of them.
#include <gtest/gtest.h>

#include <cmath>

#include "common/config.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/safs.h"
#include "ml/stats.h"

namespace flashr {
namespace {

/// A fixed reference computation with a bit of everything: element chains,
/// broadcast, inner product, several sinks.
struct reference_result {
  double total;
  smat gram;
  smat group_sums;
};

reference_result run_reference(storage st) {
  const std::size_t n = 3000, p = 6;
  dense_matrix X = conv_store(dense_matrix::rnorm(n, p, 0.5, 2.0, 99), st);
  dense_matrix labels = conv_store(
      sapply(dense_matrix::runif(n, 1, 0.0, 4.0, 7), uop_id::floor_v)
          .cast(scalar_type::i64),
      st);
  dense_matrix Y = sqrt(abs(X)) * 0.5 + square(X);
  dense_matrix total = sum(Y);
  dense_matrix gram = crossprod(Y);
  dense_matrix gsums = groupby_row(Y, labels, 4, agg_id::sum);
  materialize_all({total, gram, gsums});
  return {total.scalar(), gram.to_smat(), gsums.to_smat()};
}

struct config_case {
  int threads;
  std::size_t part_rows;
  std::size_t pcache;
  int stripes;
  exec_mode mode;
};

std::string case_name(const ::testing::TestParamInfo<config_case>& i) {
  return "t" + std::to_string(i.param.threads) + "_pr" +
         std::to_string(i.param.part_rows) + "_pc" +
         std::to_string(i.param.pcache) + "_s" +
         std::to_string(i.param.stripes) + "_" +
         std::to_string(static_cast<int>(i.param.mode));
}

class ConfigSweepTest : public ::testing::TestWithParam<config_case> {};

TEST_P(ConfigSweepTest, ReferenceComputationInvariant) {
  const config_case& c = GetParam();
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = c.threads;
  o.io_part_rows = c.part_rows;
  o.pcache_bytes = c.pcache;
  o.stripes = c.stripes;
  o.mode = c.mode;
  o.small_nrow_threshold = 16;
  init(o);

  // Golden values computed once under the default config.
  static const reference_result* golden = [] {
    options g;
    g.em_dir = "/tmp/flashr_test_em";
    g.small_nrow_threshold = 16;
    init(g);
    return new reference_result(run_reference(storage::in_mem));
  }();

  for (storage st : {storage::in_mem, storage::ext_mem}) {
    reference_result r = run_reference(st);
    EXPECT_NEAR(r.total, golden->total, std::abs(golden->total) * 1e-12);
    EXPECT_LT(r.gram.max_abs_diff(golden->gram), 1e-7);
    EXPECT_LT(r.group_sums.max_abs_diff(golden->group_sums), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweepTest,
    ::testing::Values(
        config_case{1, 64, 1024, 1, exec_mode::cache_fuse},
        config_case{2, 64, 1024, 2, exec_mode::cache_fuse},
        config_case{4, 128, 2048, 3, exec_mode::cache_fuse},
        config_case{8, 256, 512, 4, exec_mode::cache_fuse},
        config_case{4, 1024, 65536, 2, exec_mode::cache_fuse},
        config_case{3, 64, 1024, 2, exec_mode::mem_fuse},
        config_case{4, 128, 4096, 3, exec_mode::mem_fuse},
        config_case{2, 128, 2048, 2, exec_mode::eager},
        config_case{4, 512, 8192, 5, exec_mode::eager}),
    case_name);

class PropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.num_threads = 4;
    o.small_nrow_threshold = 16;
    init(o);
  }
};

TEST_F(PropertyTest, GeneratedMatrixIndependentOfPartitioning) {
  // Same seed, different partition sizes -> identical values.
  smat a, b;
  {
    mutable_conf().io_part_rows = 64;
    a = dense_matrix::rnorm(777, 3, 1, 2, 5).to_smat();
  }
  {
    mutable_conf().io_part_rows = 512;
    b = dense_matrix::rnorm(777, 3, 1, 2, 5).to_smat();
  }
  mutable_conf().io_part_rows = 64;
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST_F(PropertyTest, GeneratedMatrixIndependentOfThreads) {
  smat a, b;
  {
    mutable_conf().num_threads = 1;
    a = (dense_matrix::runif(1000, 2, 0, 1, 9) * 2.0).to_smat();
  }
  {
    mutable_conf().num_threads = 8;
    b = (dense_matrix::runif(1000, 2, 0, 1, 9) * 2.0).to_smat();
  }
  mutable_conf().num_threads = 4;
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST_F(PropertyTest, IntegerSinksBitIdenticalAcrossThreadCounts) {
  // Invariant 5: integer aggregation is exact regardless of thread count.
  dense_matrix X =
      sapply(dense_matrix::runif(5000, 2, 0, 1000, 3), uop_id::floor_v)
          .cast(scalar_type::i64);
  dense_matrix Xm = conv_store(X, storage::in_mem);
  double first = 0;
  for (int threads : {1, 2, 4, 8}) {
    mutable_conf().num_threads = threads;
    const double s = sum(Xm).scalar();
    if (threads == 1)
      first = s;
    else
      EXPECT_EQ(s, first);
  }
  mutable_conf().num_threads = 4;
}

TEST_F(PropertyTest, OnePassInvariantAcrossDagShapes) {
  // Invariant 4: an EM leaf is read exactly once per fused execution, no
  // matter how many consumers the DAG has.
  dense_matrix X =
      conv_store(dense_matrix::rnorm(64 * 10, 4, 0, 1, 2), storage::ext_mem);
  for (int consumers : {1, 2, 5}) {
    std::vector<dense_matrix> targets;
    for (int c = 0; c < consumers; ++c)
      targets.push_back(sum(X * static_cast<double>(c + 1)));
    io_stats::global().reset();
    materialize_all(targets);
    EXPECT_EQ(io_stats::global().read_ops.load(), 10u)
        << consumers << " consumers";
  }
}

TEST_F(PropertyTest, EagerModeReadsOncePerOperation) {
  // The converse: in eager mode, k operations on an EM leaf cost k passes.
  mutable_conf().mode = exec_mode::eager;
  dense_matrix X =
      conv_store(dense_matrix::rnorm(64 * 8, 2, 0, 1, 2), storage::ext_mem);
  io_stats::global().reset();
  // Chain of 3 element ops + an aggregation, materialized with EM
  // intermediates: each op re-reads its input and writes its output.
  dense_matrix s = sum(((X * 2.0) + 1.0) - 0.5);
  materialize_all({s}, storage::ext_mem);
  mutable_conf().mode = exec_mode::cache_fuse;
  EXPECT_EQ(io_stats::global().read_ops.load(), 4u * 8u);
  EXPECT_EQ(io_stats::global().write_ops.load(), 3u * 8u);
}

TEST_F(PropertyTest, PcacheRowsArePowerOfTwoAndBounded) {
  for (std::size_t ncol : {1u, 8u, 40u, 513u}) {
    const std::size_t rows = exec::pcache_rows(ncol, conf().io_part_rows);
    EXPECT_GE(rows, 16u);
    EXPECT_LE(rows, conf().io_part_rows);
    EXPECT_EQ(rows & (rows - 1), 0u) << "ncol=" << ncol;
  }
  // Wider matrices get proportionally shorter Pcache chunks.
  EXPECT_LE(exec::pcache_rows(512, 16384), exec::pcache_rows(8, 16384));
}

TEST_F(PropertyTest, Float32PathMatchesFloat64) {
  dense_matrix X64 = conv_store(dense_matrix::rnorm(2000, 3, 0, 1, 6),
                                storage::in_mem);
  dense_matrix X32 = X64.cast(scalar_type::f32);
  EXPECT_EQ(X32.type(), scalar_type::f32);
  const double s64 = sum(X64).scalar();
  const double s32 = sum(X32).scalar();
  EXPECT_NEAR(s32, s64, std::abs(s64) * 1e-3 + 0.5);
  smat g64 = crossprod(X64).to_smat();
  smat g32 = crossprod(X32).to_smat();
  EXPECT_LT(g32.max_abs_diff(g64), 0.05);
}

TEST_F(PropertyTest, ShapeErrorsAreReported) {
  dense_matrix a = dense_matrix::rnorm(100, 3, 0, 1, 1);
  dense_matrix b = dense_matrix::rnorm(100, 4, 0, 1, 2);
  dense_matrix c = dense_matrix::rnorm(200, 3, 0, 1, 3);
  EXPECT_THROW(a + b, shape_error);
  EXPECT_THROW(a + c, shape_error);
  EXPECT_THROW(matmul(a, b), shape_error);
  EXPECT_THROW(sweep_cols(a, smat(1, 5), bop_id::add), shape_error);
  EXPECT_THROW(groupby_row(a, b, 4, agg_id::sum), shape_error);
  EXPECT_THROW(dense_matrix{}.nrow(), error);
}

TEST_F(PropertyTest, TransposedMisuseIsRejected) {
  dense_matrix a = dense_matrix::rnorm(1000, 3, 0, 1, 1);
  dense_matrix at = a.t();
  EXPECT_TRUE(at.is_transposed());
  EXPECT_EQ(at.nrow(), 3u);
  EXPECT_EQ(at.ncol(), 1000u);
  EXPECT_THROW(at + at, error);        // element ops reject transposed talls
  EXPECT_THROW(sum(at), error);
  EXPECT_NO_THROW(matmul(at, a));      // the supported use
}

TEST_F(PropertyTest, ScalarOnNonScalarThrows) {
  dense_matrix a = dense_matrix::rnorm(100, 2, 0, 1, 1);
  EXPECT_THROW(a.scalar(), shape_error);
  EXPECT_NO_THROW(sum(a).scalar());
}

TEST_F(PropertyTest, MaterializeIsIdempotent) {
  dense_matrix a = dense_matrix::rnorm(500, 2, 0, 1, 8) * 3.0;
  a.materialize();
  const double s1 = sum(a).scalar();
  a.materialize();  // no-op
  EXPECT_EQ(sum(a).scalar(), s1);
}

TEST_F(PropertyTest, ConvStoreRoundTrips) {
  dense_matrix a = dense_matrix::rnorm(700, 3, 2, 1, 9);
  dense_matrix em = conv_store(a, storage::ext_mem);
  dense_matrix back = conv_store(em, storage::in_mem);
  EXPECT_EQ(back.to_smat().max_abs_diff(a.to_smat()), 0.0);
}

}  // namespace
}  // namespace flashr
