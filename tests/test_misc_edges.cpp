// Miscellaneous edge-case coverage: type promotion, degenerate statistical
// inputs, sparse corner cases, API misuse, and mixed materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "core/reshape.h"
#include "matrix/block_matrix.h"
#include "matrix/generated_store.h"
#include "matrix/import.h"
#include "ml/logistic.h"
#include "ml/mvrnorm.h"
#include "ml/naive_bayes.h"
#include "ml/pca.h"
#include "ml/stats.h"
#include "sparse/csr.h"
#include "sparse/sem_spmm.h"

namespace flashr {
namespace {

class MiscEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.small_nrow_threshold = 16;
    init(o);
  }
};

// ---- Element access ---------------------------------------------------------

// at() reads only the partition that holds its row, so it works on a
// generated matrix too large to gather on the host and returns the value
// the generator gives that element.
TEST_F(MiscEdgeTest, AtReadsOnePartitionOfAHugeGeneratedMatrix) {
  const std::size_t n = (std::size_t{1} << 24) + 5, p = 9;  // > 2^27 elements
  const dense_matrix x = dense_matrix::runif(n, p, 0.0, 1.0, 42);
  const std::size_t i = n - 3;
  std::vector<double> row(p);
  static_cast<const generated_store&>(*x.store())
      .generate(i, 1, reinterpret_cast<char*>(row.data()), 1);
  for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(x.at(i, j), row[j]) << j;
}

TEST_F(MiscEdgeTest, AtMatchesToSmatOnEveryStoreKind) {
  const dense_matrix gen = dense_matrix::runif(3000, 3, -1.0, 1.0, 5);
  const dense_matrix mem = conv_store(gen, storage::in_mem);
  const dense_matrix em = conv_store(gen, storage::ext_mem);
  const dense_matrix ints = conv_store(
      dense_matrix::seq(3000, scalar_type::i64), storage::ext_mem);
  for (const dense_matrix* m : {&gen, &mem, &em, &ints}) {
    const smat h = m->to_smat();
    for (std::size_t i : {0, 63, 64, 1500, 2999})
      for (std::size_t j = 0; j < m->ncol(); ++j)
        EXPECT_EQ(m->at(i, j), h(i, j)) << i << "," << j;
  }
}

// ---- Type promotion ----------------------------------------------------------

TEST_F(MiscEdgeTest, PromotionI32PlusI64GivesI64) {
  dense_matrix a = dense_matrix::constant(100, 1, 3, scalar_type::i32);
  dense_matrix b = dense_matrix::constant(100, 1, 4, scalar_type::i64);
  dense_matrix c = a + b;
  EXPECT_EQ(c.type(), scalar_type::i64);
  EXPECT_EQ(c.at(50, 0), 7.0);
}

TEST_F(MiscEdgeTest, PromotionI64TimesF32GivesF32) {
  dense_matrix a = dense_matrix::constant(100, 1, 3, scalar_type::i64);
  dense_matrix b = dense_matrix::constant(100, 1, 0.5, scalar_type::f32);
  dense_matrix c = a * b;
  EXPECT_EQ(c.type(), scalar_type::f32);
  EXPECT_NEAR(c.at(0, 0), 1.5, 1e-6);
}

TEST_F(MiscEdgeTest, IntegerDivisionPromotesToDouble) {
  dense_matrix a = dense_matrix::constant(100, 1, 7, scalar_type::i64);
  dense_matrix b = dense_matrix::constant(100, 1, 2, scalar_type::i64);
  dense_matrix c = a / b;
  EXPECT_EQ(c.type(), scalar_type::f64);
  EXPECT_EQ(c.at(0, 0), 3.5);
}

TEST_F(MiscEdgeTest, CbindPromotesToCommonType) {
  dense_matrix a = dense_matrix::constant(100, 1, 1, scalar_type::i32);
  dense_matrix b = dense_matrix::constant(100, 1, 2.5, scalar_type::f64);
  dense_matrix c = cbind({a, b});
  EXPECT_EQ(c.type(), scalar_type::f64);
  EXPECT_EQ(c.at(0, 0), 1.0);
  EXPECT_EQ(c.at(0, 1), 2.5);
}

// ---- Degenerate statistics -----------------------------------------------------

TEST_F(MiscEdgeTest, CorrelationOfConstantColumnIsZeroOffDiagonal) {
  smat h(500, 2);
  rng64 rng(1);
  for (std::size_t i = 0; i < 500; ++i) {
    h(i, 0) = rng.next_normal();
    h(i, 1) = 42.0;  // zero variance
  }
  smat cor = ml::correlation(dense_matrix::from_smat(h));
  EXPECT_NEAR(cor(0, 0), 1.0, 1e-12);
  EXPECT_EQ(cor(0, 1), 0.0);
  EXPECT_EQ(cor(1, 1), 1.0);  // convention: diagonal stays 1
}

TEST_F(MiscEdgeTest, MvrnormAcceptsRankDeficientSigma) {
  // Rank-1 covariance: samples lie on a line.
  smat sigma = smat::from_rows(2, 2, {1.0, 1.0, 1.0, 1.0});
  smat mu(1, 2);
  dense_matrix X = ml::mvrnorm(20000, mu, sigma, 3);
  smat h = X.to_smat();
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_NEAR(h(i, 0), h(i, 1), 1e-9);  // perfectly correlated
}

TEST_F(MiscEdgeTest, PcaOnPerfectlyCorrelatedData) {
  smat h(1000, 2);
  rng64 rng(2);
  for (std::size_t i = 0; i < 1000; ++i) {
    h(i, 0) = rng.next_normal();
    h(i, 1) = 2.0 * h(i, 0);
  }
  ml::pca_result fit = ml::pca(dense_matrix::from_smat(h));
  EXPECT_NEAR(fit.eigenvalues[1], 0.0, 1e-9);  // second component vanishes
  EXPECT_GT(fit.eigenvalues[0], 4.0);
}

TEST_F(MiscEdgeTest, NaiveBayesWithEmptyClass) {
  smat h(100, 2), lab(100, 1);
  rng64 rng(3);
  for (std::size_t i = 0; i < 100; ++i) {
    h(i, 0) = rng.next_normal();
    h(i, 1) = rng.next_normal();
    lab(i, 0) = 0;  // class 1 never appears
  }
  auto m = ml::naive_bayes_train(dense_matrix::from_smat(h),
                                 dense_matrix::from_smat(lab, scalar_type::i64),
                                 2);
  EXPECT_EQ(m.priors[1], 0.0);
  // Prediction still runs (empty class gets -inf-ish scores, never wins).
  auto pred = ml::naive_bayes_predict(dense_matrix::from_smat(h), m);
  EXPECT_EQ(flashr::max(pred.cast(scalar_type::f64)).scalar(), 0.0);
}

TEST_F(MiscEdgeTest, LogisticOnSeparableDataConverges) {
  smat h(400, 1), lab(400, 1);
  for (std::size_t i = 0; i < 400; ++i) {
    h(i, 0) = i < 200 ? -1.0 - 0.001 * static_cast<double>(i)
                      : 1.0 + 0.001 * static_cast<double>(i);
    lab(i, 0) = i < 200 ? 0 : 1;
  }
  ml::logistic_options o;
  o.max_iters = 50;
  o.l2 = 1e-3;  // keeps separable weights finite
  auto m = ml::logistic_regression(dense_matrix::from_smat(h),
                                   dense_matrix::from_smat(lab), o);
  EXPECT_GT(m.w(0, 0), 0.5);
  EXPECT_EQ(ml::accuracy(ml::logistic_predict(dense_matrix::from_smat(h), m),
                         dense_matrix::from_smat(lab)),
            1.0);
}

TEST_F(MiscEdgeTest, AccuracyOfIdenticalVectorsIsOne) {
  dense_matrix y = dense_matrix::bernoulli(1000, 1, 0.5, 7);
  EXPECT_EQ(ml::accuracy(y, y), 1.0);
}

TEST_F(MiscEdgeTest, LogisticProbabilitiesAreBounded) {
  smat h(300, 2);
  rng64 rng(5);
  for (std::size_t i = 0; i < 300; ++i) {
    h(i, 0) = 10 * rng.next_normal();
    h(i, 1) = 10 * rng.next_normal();
  }
  ml::logistic_model m;
  m.w = smat::from_rows(3, 1, {5.0, -5.0, 0.1});
  m.has_intercept = true;
  dense_matrix p = ml::logistic_predict_prob(dense_matrix::from_smat(h), m);
  EXPECT_GE(flashr::min(p).scalar(), 0.0);
  EXPECT_LE(flashr::max(p).scalar(), 1.0);
}

// ---- Sparse corners ----------------------------------------------------------

TEST_F(MiscEdgeTest, SparseEmptyRowsAndSemEm) {
  // Graph where half the vertices have no out-edges.
  std::vector<std::tuple<std::size_t, std::size_t, double>> trips;
  for (std::size_t v = 0; v < 100; v += 2) trips.emplace_back(v, v / 2, 1.0);
  auto g = sparse::csr_matrix::from_triplets(100, 100, std::move(trips));
  smat d(100, 2, 1.0);
  smat ref = g.spmm(d);
  auto em = sparse::em_csr::create(g, 16);
  smat got = em->spmm(d);
  EXPECT_EQ(got.max_abs_diff(ref), 0.0);
  for (std::size_t i = 1; i < 100; i += 2)
    EXPECT_EQ(got(i, 0), 0.0);  // empty rows stay zero
}

TEST_F(MiscEdgeTest, SparseSingleBlock) {
  auto g = sparse::csr_matrix::random_graph(50, 3.0, 9);
  auto em = sparse::em_csr::create(g, 4096);  // all rows in one block
  EXPECT_EQ(em->num_blocks(), 1u);
  smat d(50, 1, 2.0);
  EXPECT_EQ(em->spmm(d).max_abs_diff(g.spmm(d)), 0.0);
}

TEST_F(MiscEdgeTest, SpmmShapeMismatchThrows) {
  auto g = sparse::csr_matrix::random_graph(50, 3.0, 11);
  smat d(49, 1, 1.0);
  EXPECT_THROW(g.spmm(d), shape_error);
  auto em = sparse::em_csr::create(g, 16);
  EXPECT_THROW(em->spmm(d), shape_error);
}

// ---- API misuse & mixtures -----------------------------------------------------

TEST_F(MiscEdgeTest, BlockMatrixRejectsMixedHeights) {
  std::vector<dense_matrix> blocks{dense_matrix::rnorm(100, 2, 0, 1, 1),
                                   dense_matrix::rnorm(200, 2, 0, 1, 2)};
  EXPECT_THROW(block_matrix bm(std::move(blocks)), shape_error);
}

TEST_F(MiscEdgeTest, PcaTransformDimensionMismatch) {
  ml::pca_result fit = ml::pca(dense_matrix::rnorm(500, 4, 0, 1, 3));
  EXPECT_THROW(ml::pca_transform(dense_matrix::rnorm(500, 5, 0, 1, 4), fit),
               shape_error);
}

TEST_F(MiscEdgeTest, MaterializeAllMixedPendingAndDone) {
  dense_matrix a = dense_matrix::rnorm(300, 2, 0, 1, 5) * 2.0;
  a.materialize();
  dense_matrix b = sum(a);
  dense_matrix c = col_sums(a * 3.0);
  EXPECT_NO_THROW(materialize_all({a, b, c}));
  EXPECT_NEAR(c.to_smat()(0, 0), 3.0 * col_sums(a).to_smat()(0, 0), 1e-8);
}

TEST_F(MiscEdgeTest, LoadMatrixMissingThrows) {
  EXPECT_THROW(load_matrix(conf().em_dir, "no_such_matrix"), io_error);
}

// as.vector flattens column-major, whatever holds the matrix: a transposed
// view, an in-memory matrix of several partitions, a matrix on SSDs, a
// generated one, a single column, a single partition, an integer type. Each
// element matches at(), which reads one partition per call.
TEST_F(MiscEdgeTest, ToVectorMatchesToSmat) {
  const dense_matrix mem = conv_store(
      dense_matrix::rnorm(200, 3, 0.0, 1.0, 21), storage::in_mem);
  const dense_matrix em = conv_store(
      dense_matrix::rnorm(150, 2, 0.0, 1.0, 22), storage::ext_mem);
  const dense_matrix gen = dense_matrix::runif(130, 3, 0.0, 1.0, 23);
  const dense_matrix em_col = conv_store(
      dense_matrix::rnorm(150, 1, 0.0, 1.0, 24), storage::ext_mem);
  const dense_matrix em_one_part = conv_store(
      dense_matrix::rnorm(40, 3, 0.0, 1.0, 25), storage::ext_mem);
  const dense_matrix ints = conv_store(
      dense_matrix::constant(100, 2, 7.0, scalar_type::i32), storage::in_mem);
  for (const dense_matrix& m : {mem, mem.t(), em, em.t(), gen, em_col,
                                em_one_part, ints}) {
    const smat h = m.to_smat();
    const std::vector<double> v = m.to_vector();
    ASSERT_EQ(h.nrow(), m.nrow());
    ASSERT_EQ(h.ncol(), m.ncol());
    ASSERT_EQ(v.size(), h.size());
    EXPECT_TRUE(std::equal(v.begin(), v.end(), h.data()));
    for (std::size_t j = 0; j < m.ncol(); ++j)
      for (std::size_t i = 0; i < m.nrow(); ++i)
        ASSERT_EQ(v[j * m.nrow() + i], m.at(i, j)) << i << "," << j;
  }
  EXPECT_EQ(mem.t().to_vector()[1], mem.at(0, 1));  // row-major of mem
}

TEST_F(MiscEdgeTest, RbindTypePromotion) {
  dense_matrix a = dense_matrix::constant(50, 2, 1, scalar_type::i32);
  dense_matrix b = dense_matrix::constant(50, 2, 2.5, scalar_type::f64);
  dense_matrix c = rbind({a, b});
  EXPECT_EQ(c.type(), scalar_type::f64);
  EXPECT_EQ(c.at(0, 0), 1.0);
  EXPECT_EQ(c.at(50, 0), 2.5);
}

}  // namespace
}  // namespace flashr
