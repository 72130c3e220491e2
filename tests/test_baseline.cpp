// Baseline-engine tests: the rowstream (H2O/MLlib stand-in) and blas_only
// (Revolution R Open stand-in) implementations must agree with the flashr
// engine on every benchmarked algorithm — otherwise Fig 7/8 comparisons
// would be measuring different computations.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/blas_only.h"
#include "baseline/rowstream.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "ml/kmeans.h"
#include "ml/lda.h"
#include "ml/logistic.h"
#include "ml/mvrnorm.h"
#include "ml/naive_bayes.h"
#include "ml/pca.h"
#include "ml/stats.h"

namespace flashr::baseline {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = 256;
    init(o);
  }
};

smat host_random(std::size_t n, std::size_t p, std::uint64_t seed) {
  smat h(n, p);
  rng64 rng(seed);
  for (std::size_t j = 0; j < p; ++j)
    for (std::size_t i = 0; i < n; ++i) h(i, j) = rng.next_normal();
  return h;
}

TEST_F(BaselineTest, RsMapZipAggregate) {
  smat h = host_random(1000, 3, 1);
  rs_matrix X = rs_from_smat(h);
  rs_matrix sq = rs_map(X, 3, [](const double* in, double* out) {
    for (int j = 0; j < 3; ++j) out[j] = in[j] * in[j];
  });
  EXPECT_NEAR(sq.at(5, 2), h(5, 2) * h(5, 2), 1e-12);

  rs_matrix z = rs_zip(X, sq, 1, [](const double* a, const double* b,
                                    double* out) { out[0] = a[0] + b[0]; });
  EXPECT_NEAR(z.at(7, 0), h(7, 0) + h(7, 0) * h(7, 0), 1e-12);

  auto total = rs_aggregate(
      X, 1, {0.0},
      [](const double* row, double* s) { s[0] += row[0]; },
      [](double* a, const double* b) { a[0] += b[0]; });
  double expect = 0;
  for (std::size_t i = 0; i < 1000; ++i) expect += h(i, 0);
  EXPECT_NEAR(total[0], expect, 1e-8);
}

TEST_F(BaselineTest, RsCorrelationMatchesFlashr) {
  smat h = host_random(3000, 5, 2);
  for (std::size_t i = 0; i < 3000; ++i) h(i, 2) = h(i, 0) * 0.5 + h(i, 2);
  smat rs = rs_correlation(rs_from_smat(h));
  smat fr = ml::correlation(dense_matrix::from_smat(h));
  EXPECT_LT(rs.max_abs_diff(fr), 1e-9);
}

TEST_F(BaselineTest, RsPcaMatchesFlashr) {
  smat h = host_random(2000, 4, 3);
  auto rs_ev = rs_pca_eigenvalues(rs_from_smat(h));
  auto fr = ml::pca(dense_matrix::from_smat(h));
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(rs_ev[j], fr.eigenvalues[j], 1e-8);
}

TEST_F(BaselineTest, RsNaiveBayesMatchesFlashr) {
  const std::size_t n = 2000, p = 3, k = 2;
  smat h = host_random(n, p, 4);
  smat lab(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    lab(i, 0) = static_cast<double>(i % k);
    h(i, 0) += lab(i, 0) * 2;
  }
  smat rs = rs_naive_bayes_train(rs_from_smat(h), rs_from_smat(lab), k);
  auto fr = ml::naive_bayes_train(
      dense_matrix::from_smat(h),
      dense_matrix::from_smat(lab, scalar_type::i64), k);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR(rs(c, 2 * p), fr.priors[c], 1e-12);
    for (std::size_t j = 0; j < p; ++j) {
      EXPECT_NEAR(rs(c, j), fr.means(c, j), 1e-9);
      EXPECT_NEAR(rs(c, p + j), fr.vars(c, j), 1e-9);
    }
  }
}

TEST_F(BaselineTest, RsLogisticMatchesFlashr) {
  const std::size_t n = 4000, p = 2;
  smat h = host_random(n, p, 5);
  smat lab(n, 1);
  rng64 rng(6);
  for (std::size_t i = 0; i < n; ++i) {
    const double logit = 1.2 * h(i, 0) - 0.7 * h(i, 1) + 0.1;
    lab(i, 0) = rng.next_uniform() < 1 / (1 + std::exp(-logit)) ? 1 : 0;
  }
  ml::logistic_options o;
  o.max_iters = 50;
  smat w_rs =
      rs_logistic(rs_from_smat(h), rs_from_smat(lab), o.max_iters, o.loss_tol);
  auto m = ml::logistic_regression(dense_matrix::from_smat(h),
                                   dense_matrix::from_smat(lab), o);
  for (std::size_t j = 0; j <= p; ++j)
    EXPECT_NEAR(w_rs(j, 0), m.w(j, 0), 0.05);
}

TEST_F(BaselineTest, RsKmeansMatchesFlashrWithSameInit) {
  const std::size_t n = 3000, p = 3, k = 3;
  smat h = host_random(n, p, 7);
  for (std::size_t i = 0; i < n; ++i) h(i, 0) += static_cast<double>(i % 3) * 6;
  dense_matrix X = dense_matrix::from_smat(h);
  // Fixed identical init for both engines.
  smat init = gather_rows(X, {0, 1, 2});
  smat rs_centers = rs_kmeans(rs_from_smat(h), k, 5, init);
  // Run flashr k-means manually with the same init for 5 iterations.
  smat centers = init;
  for (int it = 0; it < 5; ++it) {
    dense_matrix I = ml::kmeans_assign(X, centers);
    dense_matrix cnt = count_groups(I, k);
    dense_matrix sums = groupby_row(X, I, k, agg_id::sum);
    materialize_all({cnt, sums});
    smat c = cnt.to_smat(), s = sums.to_smat();
    for (std::size_t g = 0; g < k; ++g)
      if (c(g, 0) > 0)
        for (std::size_t j = 0; j < p; ++j)
          centers(g, j) = s(g, j) / c(g, 0);
  }
  EXPECT_LT(rs_centers.max_abs_diff(centers), 1e-8);
}

TEST_F(BaselineTest, BoCrossprodMatchesSerial) {
  smat a = host_random(800, 5, 8), b = host_random(800, 3, 9);
  smat got = bo_crossprod(a, b);
  EXPECT_LT(got.max_abs_diff(a.crossprod(b)), 1e-9);
}

TEST_F(BaselineTest, BoMmMatchesSerial) {
  smat a = host_random(700, 4, 10), b = host_random(4, 6, 11);
  EXPECT_LT(bo_mm(a, b).max_abs_diff(a.mm(b)), 1e-10);
}

TEST_F(BaselineTest, BoMvrnormMoments) {
  smat mu = smat::from_rows(1, 2, {3.0, -1.0});
  smat sigma = smat::from_rows(2, 2, {1.0, 0.4, 0.4, 2.0});
  smat X = bo_mvrnorm(40000, mu, sigma, 12);
  smat m = bo_col_means(X);
  EXPECT_NEAR(m(0, 0), 3.0, 0.05);
  EXPECT_NEAR(m(0, 1), -1.0, 0.05);
  smat Xc = bo_sweep_sub(X, m);
  smat cov = bo_crossprod(Xc, Xc) * (1.0 / 39999.0);
  EXPECT_NEAR(cov(0, 0), 1.0, 0.05);
  EXPECT_NEAR(cov(0, 1), 0.4, 0.05);
}

TEST_F(BaselineTest, BoLdaPooledCovMatchesFlashr) {
  const std::size_t n = 1200, p = 3, k = 2;
  smat h = host_random(n, p, 13);
  smat lab(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    lab(i, 0) = static_cast<double>(i % k);
    h(i, 1) += lab(i, 0);
  }
  smat bo = bo_lda_pooled_cov(h, lab, k);
  auto fr = ml::lda_train(dense_matrix::from_smat(h),
                          dense_matrix::from_smat(lab, scalar_type::i64), k);
  EXPECT_LT(bo.max_abs_diff(fr.pooled_cov), 1e-8);
}

}  // namespace
}  // namespace flashr::baseline
