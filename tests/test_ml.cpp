// ML algorithm tests (DESIGN.md invariant 8): every algorithm is checked
// against a naive serial reference on small data, then against statistical
// ground truth on planted synthetic data — in memory and out of core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/config.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "matrix/datasets.h"
#include "ml/gmm.h"
#include "ml/kmeans.h"
#include "ml/lbfgs.h"
#include "ml/lda.h"
#include "ml/logistic.h"
#include "ml/mvrnorm.h"
#include "ml/naive_bayes.h"
#include "ml/pca.h"
#include "ml/stats.h"

namespace flashr::ml {
namespace {

class MlTest : public ::testing::TestWithParam<storage> {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = 256;
    o.pcache_bytes = 8192;
    init(o);
  }

  dense_matrix place(const dense_matrix& m) const {
    return GetParam() == storage::ext_mem ? conv_store(m, storage::ext_mem)
                                          : conv_store(m, storage::in_mem);
  }
};

smat host_random(std::size_t n, std::size_t p, std::uint64_t seed) {
  smat h(n, p);
  rng64 rng(seed);
  for (std::size_t j = 0; j < p; ++j)
    for (std::size_t i = 0; i < n; ++i) h(i, j) = rng.next_normal();
  return h;
}

// ---- Correlation / moments --------------------------------------------------

TEST_P(MlTest, CorrelationMatchesNaive) {
  const std::size_t n = 1500, p = 6;
  smat h = host_random(n, p, 1);
  for (std::size_t i = 0; i < n; ++i) h(i, 1) = 0.8 * h(i, 0) + 0.2 * h(i, 1);
  dense_matrix X = place(dense_matrix::from_smat(h));

  smat cor = correlation(X);
  // Naive reference.
  std::vector<double> mu(p, 0), sd(p, 0);
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < n; ++i) mu[j] += h(i, j);
    mu[j] /= static_cast<double>(n);
  }
  for (std::size_t a = 0; a < p; ++a)
    for (std::size_t b = 0; b < p; ++b) {
      double cab = 0, ca = 0, cb = 0;
      for (std::size_t i = 0; i < n; ++i) {
        cab += (h(i, a) - mu[a]) * (h(i, b) - mu[b]);
        ca += (h(i, a) - mu[a]) * (h(i, a) - mu[a]);
        cb += (h(i, b) - mu[b]) * (h(i, b) - mu[b]);
      }
      EXPECT_NEAR(cor(a, b), cab / std::sqrt(ca * cb), 1e-8);
    }
  EXPECT_GT(cor(0, 1), 0.9);  // the planted correlation
}

TEST_P(MlTest, MomentsSinglePass) {
  dense_matrix X = place(dense_matrix::runif(5000, 4, 0, 1, 11));
  moments m = compute_moments(X);
  EXPECT_EQ(m.n, 5000u);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(m.col_sums(0, j) / 5000.0, 0.5, 0.02);
  smat cov = covariance_from(m);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(cov(j, j), 1.0 / 12.0, 0.005);  // Var(U[0,1])
}

// ---- PCA ---------------------------------------------------------------------

TEST_P(MlTest, PcaRecoversPlantedSpectrum) {
  // Data with variance concentrated in the first two directions.
  const std::size_t n = 4000, p = 5;
  smat h(n, p);
  rng64 rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 3.0 * rng.next_normal(), b = 1.5 * rng.next_normal();
    h(i, 0) = a;
    h(i, 1) = b;
    for (std::size_t j = 2; j < p; ++j) h(i, j) = 0.1 * rng.next_normal();
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  pca_result fit = pca(X);
  ASSERT_EQ(fit.eigenvalues.size(), p);
  EXPECT_NEAR(fit.eigenvalues[0], 9.0, 0.5);
  EXPECT_NEAR(fit.eigenvalues[1], 2.25, 0.2);
  EXPECT_LT(fit.eigenvalues[2], 0.05);
  // First PC aligned with e0.
  EXPECT_GT(std::abs(fit.rotation(0, 0)), 0.99);

  // Transformed data has per-component variance = eigenvalue and zero
  // cross-covariance.
  dense_matrix T = pca_transform(X, fit);
  moments tm = compute_moments(T);
  smat tcov = covariance_from(tm);
  for (std::size_t j = 0; j < p; ++j)
    EXPECT_NEAR(tcov(j, j), fit.eigenvalues[j], 1e-6);
  EXPECT_NEAR(tcov(0, 1), 0.0, 1e-6);
}

TEST_P(MlTest, PcaTruncatedComponents) {
  dense_matrix X = place(dense_matrix::rnorm(2000, 6, 0, 1, 5));
  pca_result fit = pca(X, 2);
  EXPECT_EQ(fit.rotation.ncol(), 2u);
  dense_matrix T = pca_transform(X, fit);
  EXPECT_EQ(T.ncol(), 2u);
}

// ---- Naive Bayes ---------------------------------------------------------------

TEST_P(MlTest, NaiveBayesRecoversPlantedGaussians) {
  const std::size_t n = 6000, p = 4, k = 3;
  smat h(n, p), lab(n, 1);
  rng64 rng(7);
  const double mu_shift[3] = {-3.0, 0.0, 3.0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % k;
    lab(i, 0) = static_cast<double>(c);
    for (std::size_t j = 0; j < p; ++j)
      h(i, j) = mu_shift[c] + rng.next_normal();
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  dense_matrix y = place(dense_matrix::from_smat(lab, scalar_type::i64));

  naive_bayes_model model = naive_bayes_train(X, y, k);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR(model.priors[c], 1.0 / 3.0, 0.01);
    for (std::size_t j = 0; j < p; ++j) {
      EXPECT_NEAR(model.means(c, j), mu_shift[c], 0.1);
      EXPECT_NEAR(model.vars(c, j), 1.0, 0.15);
    }
  }
  dense_matrix pred = naive_bayes_predict(X, model);
  EXPECT_GT(accuracy(pred, y), 0.95);
}

TEST_P(MlTest, NaiveBayesMatchesHandComputedOnTiny) {
  smat h = smat::from_rows(6, 1, {0, 1, 2, 10, 11, 12});
  smat lab = smat::from_rows(6, 1, {0, 0, 0, 1, 1, 1});
  dense_matrix X = dense_matrix::from_smat(h);
  dense_matrix y = dense_matrix::from_smat(lab, scalar_type::i64);
  naive_bayes_model m = naive_bayes_train(X, y, 2);
  EXPECT_NEAR(m.means(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(m.means(1, 0), 11.0, 1e-12);
  EXPECT_NEAR(m.vars(0, 0), 2.0 / 3.0, 1e-9);  // population variance
  EXPECT_NEAR(m.priors[0], 0.5, 1e-12);
}

// ---- LBFGS ---------------------------------------------------------------------

TEST(Lbfgs, MinimizesQuadratic) {
  // f(x) = sum (x_i - i)^2 with condition spread.
  auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    double loss = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double scale = 1.0 + static_cast<double>(i);
      const double d = x[i] - static_cast<double>(i);
      loss += scale * d * d;
      g[i] = 2 * scale * d;
    }
    return loss;
  };
  lbfgs_result r = lbfgs_minimize(f, std::vector<double>(8, 0.0));
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(r.x[i], static_cast<double>(i), 1e-5);
}

TEST(Lbfgs, MinimizesRosenbrock) {
  int evals = 0;
  auto f = [&evals](const std::vector<double>& x, std::vector<double>& g) {
    ++evals;
    const double a = x[0], b = x[1];
    g[0] = -2 * (1 - a) - 400 * a * (b - a * a);
    g[1] = 200 * (b - a * a);
    return (1 - a) * (1 - a) + 100 * (b - a * a) * (b - a * a);
  };
  lbfgs_options o;
  o.max_iters = 2000;
  o.loss_tol = 0;  // Rosenbrock's valley makes per-step progress tiny
  o.grad_tol = 1e-8;
  lbfgs_result r = lbfgs_minimize(f, {-1.2, 1.0}, o);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 1.0, 1e-4);
  // The single-point form evaluates one trial per call: 1 + 674 accepted
  // steps + 27 rejected trials.
  EXPECT_EQ(r.iterations, 674);
  EXPECT_EQ(evals, 702);
}

// f(x) = sum_i s_i (x_i - 1)^2 with s = 1, 10, 100, 1000. From x = 0 the
// first direction is steepest descent, whose unit step overshoots the
// stiffest coordinate about 2000-fold: the first search accepts only its
// 11th trial, step 2^-10, after backtracking ten times.
double badly_scaled(const std::vector<double>& x, std::vector<double>& g) {
  double loss = 0, s = 1;
  for (std::size_t i = 0; i < x.size(); ++i, s *= 10) {
    const double d = x[i] - 1.0;
    loss += s * d * d;
    g[i] = 2 * s * d;
  }
  return loss;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The batch form evaluates each search's ladder in batches of 1, 2, 4, ...
// trials and accepts the first passing trial in ladder order, so it visits
// exactly the single-point form's iterates.
TEST(Lbfgs, BatchedLineSearchVisitsTheSameIterates) {
  lbfgs_options o;
  o.max_iters = 40;
  o.loss_tol = 0;
  o.grad_tol = 1e-10;
  const std::vector<double> x0(4, 0.0);

  int single_calls = 0;
  const lbfgs_result one = lbfgs_minimize(
      [&](const std::vector<double>& x, std::vector<double>& g) {
        ++single_calls;
        return badly_scaled(x, g);
      },
      x0, o);

  std::vector<std::size_t> widths;
  const lbfgs_result batched = lbfgs_minimize_batch(
      [&](const std::vector<std::vector<double>>& xs,
          std::vector<std::vector<double>>& grads) {
        widths.push_back(xs.size());
        std::vector<double> losses;
        for (std::size_t i = 0; i < xs.size(); ++i)
          losses.push_back(badly_scaled(xs[i], grads[i]));
        return losses;
      },
      x0, o);

  // The first search backtracked ten times: x_1 = 2^-10 * -g(x_0).
  lbfgs_options first = o;
  first.max_iters = 1;
  const lbfgs_result x1 = lbfgs_minimize(badly_scaled, x0, first);
  ASSERT_EQ(x1.iterations, 1);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(x1.x[i], std::ldexp(2.0 * std::pow(10.0, i), -10)) << i;

  EXPECT_EQ(batched.iterations, one.iterations);
  EXPECT_EQ(batched.converged, one.converged);
  EXPECT_TRUE(same_bits(batched.x, one.x));
  EXPECT_TRUE(same_bits(batched.loss_history, one.loss_history));

  // The initial point, then the first search's 11 trials in batches of
  // 1 + 2 + 4 + 8, which evaluate 4 points past the accepted one. Of the
  // 20 later searches, one accepts its second trial (batches 1 + 2, one
  // extra point) and the rest their first. The single-point form makes one
  // call per point it needs: 1 + 11 + 2 + 19 = 33.
  ASSERT_GE(widths.size(), 5u);
  EXPECT_EQ(std::vector<std::size_t>(widths.begin(), widths.begin() + 5),
            (std::vector<std::size_t>{1, 1, 2, 4, 8}));
  std::size_t points = 0;
  for (std::size_t w : widths) points += w;
  EXPECT_EQ(one.iterations, 21);
  EXPECT_EQ(single_calls, 33);
  EXPECT_EQ(widths.size(), 26u);
  EXPECT_EQ(points, 38u);
}

TEST(Lbfgs, LossHistoryMonotone) {
  auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    double loss = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      loss += std::cosh(x[i] - 1.0);
      g[i] = std::sinh(x[i] - 1.0);
    }
    return loss;
  };
  lbfgs_result r = lbfgs_minimize(f, std::vector<double>(4, 3.0));
  for (std::size_t i = 1; i < r.loss_history.size(); ++i)
    EXPECT_LE(r.loss_history[i], r.loss_history[i - 1] + 1e-12);
}

// ---- Logistic regression --------------------------------------------------------

TEST_P(MlTest, LogisticRecoversPlantedWeights) {
  const std::size_t n = 8000, p = 3;
  smat h = host_random(n, p, 21);
  smat lab(n, 1);
  rng64 rng(22);
  const double w_true[3] = {1.5, -2.0, 0.5};
  const double b_true = 0.3;
  for (std::size_t i = 0; i < n; ++i) {
    double logit = b_true;
    for (std::size_t j = 0; j < p; ++j) logit += w_true[j] * h(i, j);
    lab(i, 0) = rng.next_uniform() < 1.0 / (1.0 + std::exp(-logit)) ? 1 : 0;
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  dense_matrix y = place(dense_matrix::from_smat(lab));

  logistic_model m = logistic_regression(X, y);
  for (std::size_t j = 0; j < p; ++j) EXPECT_NEAR(m.w(j, 0), w_true[j], 0.25);
  EXPECT_NEAR(m.w(p, 0), b_true, 0.25);  // intercept
  // Loss decreases and converges per the paper's 1e-6 criterion.
  ASSERT_GE(m.loss_history.size(), 2u);
  EXPECT_LT(m.loss_history.back(), m.loss_history.front());
  EXPECT_TRUE(m.converged);
  EXPECT_GT(accuracy(logistic_predict(X, m), y), 0.8);
}

TEST_P(MlTest, LogisticLearnsCriteoLike) {
  labeled_data d = criteo_like(20000, 5);
  dense_matrix X = place(d.X), y = place(d.y);
  logistic_options o;
  o.max_iters = 30;
  logistic_model m = logistic_regression(X, y, o);
  const double base_rate = sum(y).scalar() / static_cast<double>(y.nrow());
  const double majority = std::max(base_rate, 1 - base_rate);
  EXPECT_GT(accuracy(logistic_predict(X, m), y), majority + 0.01);
}

// ---- k-means ---------------------------------------------------------------------

TEST_P(MlTest, KmeansSeparatesPlantedBlobs) {
  const std::size_t n = 6000, p = 4, k = 3;
  smat h(n, p), lab(n, 1);
  rng64 rng(31);
  const double centers[3][2] = {{8, 0}, {-8, 0}, {0, 8}};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 3;
    lab(i, 0) = static_cast<double>(c);
    h(i, 0) = centers[c][0] + rng.next_normal();
    h(i, 1) = centers[c][1] + rng.next_normal();
    h(i, 2) = rng.next_normal();
    h(i, 3) = rng.next_normal();
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  kmeans_result r = kmeans(X, k, {.max_iters = 50, .seed = 5});
  EXPECT_TRUE(r.converged);

  // Cluster purity against the planted labels (labels are permuted).
  smat got = r.assignments.to_smat();
  std::map<std::pair<int, int>, std::size_t> confusion;
  for (std::size_t i = 0; i < n; ++i)
    confusion[{static_cast<int>(lab(i, 0)), static_cast<int>(got(i, 0))}]++;
  std::size_t correct = 0;
  for (int c = 0; c < 3; ++c) {
    std::size_t best = 0;
    for (int g = 0; g < 3; ++g)
      best = std::max(best, confusion[{c, g}]);
    correct += best;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(n), 0.98);
}

TEST_P(MlTest, KmeansWcssDecreasesMonotonically) {
  labeled_data d = pagegraph_like(5000, 4, 17);
  dense_matrix X = place(d.X);
  // Track WCSS across iterations by running with increasing max_iters.
  double prev = 1e300;
  for (int iters = 1; iters <= 4; ++iters) {
    kmeans_result r = kmeans(X, 4, {.max_iters = iters, .seed = 9});
    EXPECT_LE(r.wcss, prev + 1e-6);
    prev = r.wcss;
  }
}

TEST_P(MlTest, KmeansOneClusterIsMean) {
  dense_matrix X = place(dense_matrix::rnorm(3000, 3, 2.0, 1.0, 41));
  kmeans_result r = kmeans(X, 1, {.max_iters = 3});
  smat mu = col_means(X).to_smat();
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(r.centers(0, j), mu(0, j), 1e-9);
}

// ---- GMM ------------------------------------------------------------------------

TEST_P(MlTest, GmmRecoversPlantedMixture) {
  const std::size_t n = 6000, p = 2;
  smat h(n, p);
  rng64 rng(51);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {  // 25% component at (6, 6) with small variance
      h(i, 0) = 6 + 0.5 * rng.next_normal();
      h(i, 1) = 6 + 0.5 * rng.next_normal();
    } else {  // 75% component at (0, 0), unit variance
      h(i, 0) = rng.next_normal();
      h(i, 1) = rng.next_normal();
    }
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  gmm_result m = gmm_fit(X, 2, {.max_iters = 60, .seed = 3});

  // Identify which fitted component is the (6,6) blob.
  const std::size_t hi = m.means(0, 0) > m.means(1, 0) ? 0 : 1;
  const std::size_t lo = 1 - hi;
  EXPECT_NEAR(m.means(hi, 0), 6.0, 0.3);
  EXPECT_NEAR(m.means(hi, 1), 6.0, 0.3);
  EXPECT_NEAR(m.means(lo, 0), 0.0, 0.3);
  EXPECT_NEAR(m.weights[hi], 0.25, 0.05);
  EXPECT_NEAR(m.covariances[hi](0, 0), 0.25, 0.1);
  EXPECT_NEAR(m.covariances[lo](0, 0), 1.0, 0.2);

  // Mean log-likelihood is non-decreasing (EM guarantee).
  for (std::size_t i = 1; i < m.loglik_history.size(); ++i)
    EXPECT_GE(m.loglik_history[i], m.loglik_history[i - 1] - 1e-6);
}

TEST_P(MlTest, GmmPredictMatchesResponsibilities) {
  labeled_data d = pagegraph_like(3000, 3, 77);
  dense_matrix X = place(d.X);
  gmm_result m = gmm_fit(X, 3, {.max_iters = 20, .seed = 8});
  dense_matrix pred = gmm_predict(X, m);
  smat hp = pred.to_smat();
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_GE(hp(i, 0), 0);
    EXPECT_LT(hp(i, 0), 3);
  }
}

// ---- mvrnorm ---------------------------------------------------------------------

TEST_P(MlTest, MvrnormMatchesRequestedMoments) {
  const std::size_t n = 60000;
  smat mu = smat::from_rows(1, 3, {1.0, -2.0, 0.5});
  smat sigma = smat::from_rows(3, 3,
                               {2.0, 0.6, 0.0,
                                0.6, 1.0, -0.3,
                                0.0, -0.3, 0.5});
  dense_matrix X = mvrnorm(n, mu, sigma, 13);
  dense_matrix Xp = place(X);
  moments m = compute_moments(Xp);
  smat got_mu = means_from(m);
  smat got_cov = covariance_from(m);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(got_mu(0, j), mu(0, j), 0.05);
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 3; ++b)
      EXPECT_NEAR(got_cov(a, b), sigma(a, b), 0.06);
}

TEST(Mvrnorm, RejectsIndefiniteSigma) {
  smat mu(1, 2);
  smat sigma = smat::from_rows(2, 2, {1.0, 2.0, 2.0, 1.0});
  EXPECT_THROW(mvrnorm(100, mu, sigma), error);
}

// ---- LDA ------------------------------------------------------------------------

TEST_P(MlTest, LdaSeparatesPlantedClasses) {
  const std::size_t n = 6000, p = 4, k = 2;
  smat h(n, p), lab(n, 1);
  rng64 rng(61);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 2;
    lab(i, 0) = static_cast<double>(c);
    // Shared covariance, different means along a diagonal direction.
    const double shift = c == 0 ? -1.5 : 1.5;
    for (std::size_t j = 0; j < p; ++j)
      h(i, j) = shift * (j < 2 ? 1.0 : 0.0) + rng.next_normal();
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  dense_matrix y = place(dense_matrix::from_smat(lab, scalar_type::i64));
  lda_model m = lda_train(X, y, k);

  EXPECT_NEAR(m.means(0, 0), -1.5, 0.1);
  EXPECT_NEAR(m.means(1, 0), 1.5, 0.1);
  EXPECT_NEAR(m.pooled_cov(0, 0), 1.0, 0.1);
  EXPECT_NEAR(m.pooled_cov(0, 1), 0.0, 0.1);
  EXPECT_GT(accuracy(lda_predict(X, m), y), 0.97);

  // The single discriminant axis lies along (1,1,0,0)/sqrt(2).
  ASSERT_EQ(m.scaling.ncol(), 1u);
  const double a0 = m.scaling(0, 0), a1 = m.scaling(1, 0);
  EXPECT_NEAR(std::abs(a0 / a1), 1.0, 0.15);
  EXPECT_GT(std::abs(a0), 10 * std::abs(m.scaling(2, 0)) - 1e-9);
}

TEST_P(MlTest, LdaPooledCovMatchesNaive) {
  const std::size_t n = 900, p = 3, k = 3;
  smat h = host_random(n, p, 71);
  smat lab(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    lab(i, 0) = static_cast<double>(i % k);
    h(i, 0) += static_cast<double>(i % k);
  }
  dense_matrix X = place(dense_matrix::from_smat(h));
  dense_matrix y = place(dense_matrix::from_smat(lab, scalar_type::i64));
  lda_model m = lda_train(X, y, k);

  // Naive pooled covariance.
  smat mu(k, p);
  std::vector<double> cnt(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(lab(i, 0));
    cnt[c] += 1;
    for (std::size_t j = 0; j < p; ++j) mu(c, j) += h(i, j);
  }
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < p; ++j) mu(c, j) /= cnt[c];
  smat W(p, p);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(lab(i, 0));
    for (std::size_t a = 0; a < p; ++a)
      for (std::size_t b = 0; b < p; ++b)
        W(a, b) += (h(i, a) - mu(c, a)) * (h(i, b) - mu(c, b));
  }
  for (std::size_t a = 0; a < p; ++a)
    for (std::size_t b = 0; b < p; ++b)
      W(a, b) /= static_cast<double>(n - k);
  EXPECT_LT(m.pooled_cov.max_abs_diff(W), 1e-8);
}

// ---- Datasets ---------------------------------------------------------------------

TEST_P(MlTest, CriteoLikeShapesAndLabelRate) {
  labeled_data d = criteo_like(10000, 3);
  EXPECT_EQ(d.X.ncol(), 39u);
  EXPECT_EQ(d.X.nrow(), 10000u);
  const double rate = sum(d.y).scalar() / 10000.0;
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.7);
  // Categorical columns are integral and within [0, 32).
  dense_matrix cats = select_cols(d.X, {20});
  EXPECT_GE(flashr::min(cats).scalar(), 0.0);
  EXPECT_LT(flashr::max(cats).scalar(), 32.0);
}

TEST_P(MlTest, PagegraphLikeClustersAreLearnable) {
  labeled_data d = pagegraph_like(4000, 4, 23);
  EXPECT_EQ(d.X.ncol(), 32u);
  ASSERT_TRUE(d.y.valid());
  // Labels are within range and the planted structure is recoverable well
  // above chance by k-means.
  dense_matrix X = place(d.X);
  kmeans_result r = kmeans(X, 4, {.max_iters = 30, .seed = 2});
  smat got = r.assignments.to_smat();
  smat lab = d.y.to_smat();
  std::map<std::pair<int, int>, std::size_t> confusion;
  for (std::size_t i = 0; i < 4000; ++i)
    confusion[{static_cast<int>(lab(i, 0)), static_cast<int>(got(i, 0))}]++;
  std::size_t correct = 0;
  for (int c = 0; c < 4; ++c) {
    std::size_t best = 0;
    for (int g = 0; g < 4; ++g) best = std::max(best, confusion[{c, g}]);
    correct += best;
  }
  EXPECT_GT(static_cast<double>(correct) / 4000.0, 0.6);
}

INSTANTIATE_TEST_SUITE_P(Storages, MlTest,
                         ::testing::Values(storage::in_mem, storage::ext_mem),
                         [](const ::testing::TestParamInfo<storage>& i) {
                           return i.param == storage::in_mem ? "im" : "em";
                         });

}  // namespace
}  // namespace flashr::ml
