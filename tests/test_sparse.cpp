// Sparse substrate tests: CSR construction, graph generation, in-memory SpMM
// against a dense reference, and the semi-external-memory SpMM against the
// in-memory one (it must be bit-identical — same accumulation order per row).
#include <gtest/gtest.h>

#include <cmath>

#include "common/config.h"
#include "common/error.h"
#include "common/rng.h"
#include "io/fault.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"
#include "sparse/csr.h"
#include "sparse/sem_spmm.h"

namespace flashr::sparse {
namespace {

class SparseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    init(o);
  }
};

TEST_F(SparseTest, FromTripletsBasics) {
  csr_matrix m = csr_matrix::from_triplets(
      3, 4, {{0, 1, 2.0}, {2, 3, 5.0}, {0, 0, 1.0}, {1, 2, -1.0}});
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.at(0, 0), 1.0);
  EXPECT_EQ(m.at(0, 1), 2.0);
  EXPECT_EQ(m.at(1, 2), -1.0);
  EXPECT_EQ(m.at(2, 3), 5.0);
  EXPECT_EQ(m.at(2, 0), 0.0);
}

TEST_F(SparseTest, DuplicateTripletsMerge) {
  csr_matrix m =
      csr_matrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.at(0, 0), 3.5);
}

TEST_F(SparseTest, SpmmMatchesDense) {
  const std::size_t n = 500;
  csr_matrix g = csr_matrix::random_graph(n, 8.0, 3);
  smat d(n, 4);
  rng64 rng(4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < n; ++i) d(i, j) = rng.next_normal();
  smat got = g.spmm(d);
  // Dense reference.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      double e = 0;
      for (std::size_t c = 0; c < n; ++c) e += g.at(i, c) * d(c, j);
      ASSERT_NEAR(got(i, j), e, 1e-9) << i << "," << j;
    }
}

TEST_F(SparseTest, RowNormalizeMakesStochastic) {
  csr_matrix g = csr_matrix::random_graph(300, 5.0, 7);
  g.row_normalize();
  smat ones(300, 1, 1.0);
  smat row_sums = g.spmm(ones);
  for (std::size_t i = 0; i < 300; ++i) {
    // Rows with outgoing edges sum to 1; empty rows to 0.
    EXPECT_TRUE(std::abs(row_sums(i, 0) - 1.0) < 1e-9 ||
                row_sums(i, 0) == 0.0);
  }
}

TEST_F(SparseTest, SemSpmmMatchesInMemory) {
  const std::size_t n = 2000;
  csr_matrix g = csr_matrix::random_graph(n, 10.0, 11);
  smat d(n, 3);
  rng64 rng(12);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < n; ++i) d(i, j) = rng.next_normal();

  auto em = em_csr::create(g, /*rows_per_block=*/256);
  EXPECT_EQ(em->nnz(), g.nnz());
  EXPECT_GT(em->num_blocks(), 4u);
  smat got = em->spmm(d);
  smat ref = g.spmm(d);
  EXPECT_EQ(got.max_abs_diff(ref), 0.0);  // identical accumulation order
}

TEST_F(SparseTest, SemSpmmStreamsOnce) {
  const std::size_t n = 3000;
  csr_matrix g = csr_matrix::random_graph(n, 6.0, 13);
  auto em = em_csr::create(g, 512);
  smat d(n, 2, 1.0);
  io_stats::global().reset();
  em->spmm(d);
  EXPECT_EQ(io_stats::global().read_ops.load(), em->num_blocks());
}

// A failed block read surfaces from spmm only once every read of its batch
// has landed, with every batch buffer back in the pool.
TEST_F(SparseTest, SemSpmmFailedBlockReadSurfacesAfterItsBatchLanded) {
  // One worker takes blocks 0-3 as its first batch and one I/O thread reads
  // them in order. Block 0's read fails for good (one fault, no retries);
  // the throttle spaces the other three ~40 ms apart, so an early error
  // would find them still queued.
  mutable_conf().num_threads = 1;
  mutable_conf().io_threads = 1;
  mutable_conf().io_max_retries = 0;
  const std::size_t n = 1024;
  csr_matrix g = csr_matrix::random_graph(n, 8.0, 19);
  auto em = em_csr::create(g, /*rows_per_block=*/64);
  ASSERT_GT(em->num_blocks(), 8u);
  smat d(n, 2, 1.0);
  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  mutable_conf().io_throttle_mbps = 0.2;  // 8 KiB block: ~40 ms each
  io_stats::global().reset();
  fault_plan one_fault;
  one_fault.pread_prob = 1.0;
  one_fault.max_faults = 1;
  fault_scope scope(one_fault);
  EXPECT_THROW(em->spmm(d), io_error);
  EXPECT_EQ(io_stats::global().read_ops.load(), 3u)
      << "the error surfaced while reads of its batch were still in flight";
  EXPECT_EQ(pool.outstanding_count(), count0);
  mutable_conf().io_throttle_mbps = 0;
}

TEST_F(SparseTest, PowerIterationConverges) {
  // PageRank-style power iteration on the EM matrix: the dominant left
  // eigenvector of a stochastic matrix has eigenvalue 1.
  const std::size_t n = 1000;
  csr_matrix g = csr_matrix::random_graph(n, 8.0, 17);
  g.row_normalize();
  auto em = em_csr::create(g, 256);

  smat v(n, 1, 1.0 / static_cast<double>(n));
  const double damp = 0.85;
  for (int it = 0; it < 30; ++it) {
    // v' = damp * P^T v + (1-damp)/n: we iterate with P (row-stochastic) on
    // column vectors, i.e. v' = damp * (P %*% v) + teleport, which converges
    // to the dominant eigenvector of the damped operator.
    smat pv = em->spmm(v);
    double norm = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v(i, 0) = damp * pv(i, 0) + (1.0 - damp) / static_cast<double>(n);
      norm += v(i, 0);
    }
    for (std::size_t i = 0; i < n; ++i) v(i, 0) /= norm;
  }
  // Fixed point check: one more application changes v very little.
  smat pv = em->spmm(v);
  double drift = 0, norm = 0;
  smat v2(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    v2(i, 0) = damp * pv(i, 0) + (1.0 - damp) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) norm += v2(i, 0);
  for (std::size_t i = 0; i < n; ++i)
    drift = std::max(drift, std::abs(v2(i, 0) / norm - v(i, 0)));
  EXPECT_LT(drift, 1e-6);
}

}  // namespace
}  // namespace flashr::sparse
