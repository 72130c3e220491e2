// Partial-column reads from SSD-resident matrices (§3.2.1): selecting
// columns of an EM matrix must read ONLY those columns' bytes, and the data
// must be identical to the virtual select_cols path.
#include <gtest/gtest.h>

#include "common/config.h"
#include "common/error.h"
#include "core/dense_matrix.h"
#include "io/fault.h"
#include "io/safs.h"
#include "matrix/em_store.h"
#include "mem/buffer_pool.h"

namespace flashr {
namespace {

class ColViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 128;
    o.small_nrow_threshold = 32;
    init(o);
  }
};

TEST_F(ColViewTest, SelectOnEmLeafProducesView) {
  dense_matrix X = conv_store(dense_matrix::rnorm(1024, 10, 0, 1, 1),
                              storage::ext_mem);
  dense_matrix sel = select_cols(X, {3, 7});
  // The selection is a leaf (no virtual node), backed by a column view.
  EXPECT_FALSE(sel.is_virtual());
  EXPECT_EQ(sel.resolved()->kind(), store_kind::ext);
  EXPECT_NE(dynamic_cast<const em_col_view*>(sel.resolved().get()), nullptr);
}

TEST_F(ColViewTest, ReadsOnlySelectedColumns) {
  const std::size_t n = 1024, p = 10;
  dense_matrix X = conv_store(dense_matrix::rnorm(n, p, 0, 1, 2),
                              storage::ext_mem);
  dense_matrix sel = select_cols(X, {0, 4, 9});
  io_stats::global().reset();
  sum(sel).scalar();
  // 3 of 10 columns -> 30% of the bytes.
  EXPECT_EQ(io_stats::global().read_bytes.load(), n * 3 * sizeof(double));
}

TEST_F(ColViewTest, DataMatchesVirtualSelectPath) {
  const std::size_t n = 700, p = 8;
  dense_matrix base = dense_matrix::rnorm(n, p, 1, 2, 3);
  dense_matrix X_em = conv_store(base, storage::ext_mem);
  dense_matrix X_im = conv_store(base, storage::in_mem);
  const std::vector<std::size_t> cols{5, 0, 6};
  smat view_data = select_cols(X_em, cols).to_smat();
  smat virt_data = select_cols(X_im, cols).to_smat();
  EXPECT_EQ(view_data.max_abs_diff(virt_data), 0.0);
}

TEST_F(ColViewTest, ViewOfViewComposes) {
  dense_matrix X = conv_store(dense_matrix::rnorm(600, 9, 0, 1, 4),
                              storage::ext_mem);
  smat h = X.to_smat();
  dense_matrix v1 = select_cols(X, {8, 2, 5, 1});
  dense_matrix v2 = select_cols(v1, {3, 0});  // -> base cols {1, 8}
  smat got = v2.to_smat();
  for (std::size_t i = 0; i < 600; ++i) {
    EXPECT_EQ(got(i, 0), h(i, 1));
    EXPECT_EQ(got(i, 1), h(i, 8));
  }
}

TEST_F(ColViewTest, ViewJoinsDagsLikeAnyLeaf) {
  dense_matrix X = conv_store(dense_matrix::rnorm(512, 6, 0, 1, 5),
                              storage::ext_mem);
  dense_matrix a = select_cols(X, {0, 1});
  dense_matrix b = select_cols(X, {2, 3});
  smat got = (a + b).to_smat();
  smat h = X.to_smat();
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_NEAR(got(i, 0), h(i, 0) + h(i, 2), 1e-12);
    EXPECT_NEAR(got(i, 1), h(i, 1) + h(i, 3), 1e-12);
  }
}

TEST_F(ColViewTest, RaggedTailPartition) {
  dense_matrix X = conv_store(dense_matrix::seq(128 * 2 + 17), storage::ext_mem);
  dense_matrix wide = conv_store(cbind({X, X * 10.0, X * 100.0}),
                                 storage::ext_mem);
  dense_matrix mid = select_cols(wide, {1});
  smat got = mid.to_smat();
  const std::size_t n = 128 * 2 + 17;
  EXPECT_EQ(got(n - 1, 0), static_cast<double>(n - 1) * 10.0);
}

// A synchronous read of a view partition reports a failed column only once
// every column read has landed, so the caller never frees a buffer a
// sibling read still writes into.
TEST_F(ColViewTest, FailedColumnReadSurfacesAfterEveryColumnLanded) {
  // One I/O thread runs the column reads in submission order. The first
  // fails for good (one fault, no retries); the throttle spaces the other
  // three 10 ms apart, so an early error would find them still queued.
  mutable_conf().io_threads = 1;
  mutable_conf().io_max_retries = 0;
  dense_matrix X = conv_store(dense_matrix::rnorm(1024, 8, 0, 1, 7),
                              storage::ext_mem);
  const std::vector<std::size_t> cols{1, 3, 5, 7};
  auto view = std::dynamic_pointer_cast<const em_col_view>(
      select_cols(X, cols).resolved());
  ASSERT_NE(view, nullptr);
  pool_buffer buf =
      buffer_pool::global().get(view->geom().part_bytes(0, view->type()));
  mutable_conf().io_throttle_mbps = 0.1;  // 1 KiB column: ~10 ms each
  io_stats::global().reset();
  fault_plan one_fault;
  one_fault.pread_prob = 1.0;
  one_fault.max_faults = 1;
  fault_scope scope(one_fault);
  EXPECT_THROW(view->read_part(0, buf.data()), io_error);
  EXPECT_EQ(io_stats::global().read_ops.load(), cols.size() - 1)
      << "the error surfaced while column reads were still in flight";
  mutable_conf().io_throttle_mbps = 0;
}

TEST_F(ColViewTest, OutOfRangeRejected) {
  dense_matrix X = conv_store(dense_matrix::rnorm(256, 4, 0, 1, 6),
                              storage::ext_mem);
  EXPECT_THROW(select_cols(X, {4}), shape_error);
}

}  // namespace
}  // namespace flashr
