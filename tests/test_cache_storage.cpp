// Tests for set.cache storage placement, and for element and cumulative
// ops run by a single worker.
#include <gtest/gtest.h>

#include "common/config.h"
#include "core/dense_matrix.h"
#include "core/virtual_store.h"
#include "io/safs.h"

namespace flashr {
namespace {

class SingleWorkerExecTest : public ::testing::Test {
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

TEST_F(SingleWorkerExecTest, ElementOpClaimsEveryPartition) {
  mutable_conf().num_threads = 1;
  dense_matrix X = conv_store(dense_matrix::rnorm(64 * 8, 3, 0, 1, 5),
                              storage::in_mem);
  smat got = (X + 1.0).to_smat();
  smat h = X.to_smat();
  for (std::size_t j = 0; j < X.ncol(); ++j)
    for (std::size_t i = 0; i < X.nrow(); ++i)
      ASSERT_NEAR(got(i, j), h(i, j) + 1.0, 1e-12) << i << "," << j;
  mutable_conf().num_threads = 4;
}

TEST_F(SingleWorkerExecTest, CumulativeOpCarriesAcrossPartitions) {
  // One worker claims every partition in order and carries the running sum
  // from each to the next itself.
  mutable_conf().num_threads = 1;
  dense_matrix X = conv_store(dense_matrix::rnorm(64 * 6, 2, 0, 1, 7),
                              storage::in_mem);
  smat got = cumsum_col(X).to_smat();
  smat h = X.to_smat();
  double run = 0;
  for (std::size_t i = 0; i < X.nrow(); ++i) {
    run += h(i, 0);
    ASSERT_NEAR(got(i, 0), run, 1e-8);
  }
  mutable_conf().num_threads = 4;
}

class CacheStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.small_nrow_threshold = 16;
    init(o);
  }
};

TEST_F(CacheStorageTest, SetCacheToSsdMaterializesThere) {
  dense_matrix X = conv_store(dense_matrix::rnorm(64 * 8, 2, 0, 1, 9),
                              storage::ext_mem);
  dense_matrix mid = X * 3.0;
  mid.set_cache(true, storage::ext_mem);
  const double total = sum(mid).scalar();
  // mid is now materialized... on SSDs.
  ASSERT_FALSE(mid.is_virtual());
  EXPECT_EQ(mid.resolved()->kind(), store_kind::ext);
  // And reusable without recomputing from X.
  EXPECT_NEAR(sum(mid).scalar(), total, 1e-9);
}

TEST_F(CacheStorageTest, SetCacheToMemoryDefault) {
  dense_matrix X = conv_store(dense_matrix::rnorm(64 * 4, 2, 0, 1, 9),
                              storage::ext_mem);
  dense_matrix mid = X + 1.0;
  mid.set_cache(true);
  sum(mid).scalar();
  ASSERT_FALSE(mid.is_virtual());
  EXPECT_EQ(mid.resolved()->kind(), store_kind::mem);
}

TEST_F(CacheStorageTest, RequestedTargetHonoursCallerStorage) {
  dense_matrix X = conv_store(dense_matrix::rnorm(64 * 4, 2, 0, 1, 9),
                              storage::in_mem);
  dense_matrix y = X * 2.0;
  materialize_all({y}, storage::ext_mem);
  EXPECT_EQ(y.resolved()->kind(), store_kind::ext);
}

}  // namespace
}  // namespace flashr
