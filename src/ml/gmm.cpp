#include "ml/gmm.h"

#include <cmath>
#include <numbers>
#include <set>

#include "ml/kmeans.h"

#include "blas/blas.h"
#include "common/error.h"
#include "common/rng.h"
#include "ml/stats.h"

namespace flashr::ml {

namespace {

/// Per-component whitening transforms: A_c = L_c^{-T} where Sigma_c =
/// L_c L_c^T, so ||(x - mu_c) A_c||^2 is the Mahalanobis distance, plus the
/// log-normalizer of each Gaussian.
struct component_xform {
  smat A;          // p x p
  double log_norm; // log w_c - 0.5 logdet - (p/2) log(2 pi)
};

component_xform make_xform(const smat& sigma, double weight, double ridge) {
  const std::size_t p = sigma.nrow();
  smat L = sigma;
  for (std::size_t i = 0; i < p; ++i) L(i, i) += ridge;
  FLASHR_CHECK(blas::cholesky(p, L.data(), p),
               "gmm: covariance not positive definite");
  const double logdet = blas::cholesky_logdet(p, L.data(), p);
  // A = L^{-T}: solve L^T A = I column-wise.
  smat A = smat::identity(p);
  for (std::size_t j = 0; j < p; ++j)
    blas::backward_subst_t(p, L.data(), p, A.data() + j * p);
  component_xform x;
  x.A = std::move(A);
  x.log_norm = std::log(std::max(weight, 1e-300)) - 0.5 * logdet -
               0.5 * static_cast<double>(p) *
                   std::log(2.0 * std::numbers::pi);
  return x;
}

/// Build the per-row log joint densities (n x k) for the current model.
dense_matrix log_joint(const dense_matrix& X, const gmm_result& model,
                       double ridge) {
  const std::size_t k = model.weights.size();
  std::vector<dense_matrix> cols;
  cols.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    component_xform xf =
        make_xform(model.covariances[c], model.weights[c], ridge);
    dense_matrix Xc = sweep_cols(X, model.means.row(c), bop_id::sub);
    dense_matrix Y = matmul(Xc, xf.A);
    dense_matrix q = row_sums(square(Y));  // Mahalanobis distance^2
    cols.push_back(q * -0.5 + xf.log_norm);
  }
  return cbind(cols);
}

}  // namespace

gmm_result gmm_fit(const dense_matrix& X, std::size_t k,
                   const gmm_options& opts) {
  const std::size_t p = X.ncol();
  const double n = static_cast<double>(X.nrow());
  FLASHR_CHECK(k >= 1, "gmm: k must be positive");

  // Initialize from a few k-means iterations (the standard EM warm start:
  // initializing every component at the global covariance leaves the
  // responsibilities uniform and EM stuck at a symmetric fixed point).
  gmm_result model;
  {
    kmeans_options ko;
    ko.max_iters = 5;
    ko.seed = opts.seed;
    kmeans_result km = kmeans(X, k, ko);
    model.means = km.centers;
    dense_matrix cnt = count_groups(km.assignments, k);
    smat counts = cnt.to_smat();
    model.weights.resize(k);
    for (std::size_t c = 0; c < k; ++c)
      model.weights[c] = std::max(counts(c, 0), 1.0) / n;
    // Diagonal global variances as the initial spread of every component.
    moments mom = compute_moments(X);
    smat cov = covariance_from(mom);
    smat diag(p, p);
    for (std::size_t j = 0; j < p; ++j)
      diag(j, j) = std::max(cov(j, j) / static_cast<double>(k), 1e-6);
    model.covariances.assign(k, diag);
  }

  for (int iter = 0; iter < opts.max_iters; ++iter) {
    // ---- E-step (all lazy) ----
    dense_matrix L = log_joint(X, model, opts.ridge);       // n x k
    dense_matrix M = agg_row(L, agg_id::max_v);             // n x 1
    dense_matrix R0 = exp(L - M);                           // col-broadcast
    dense_matrix S = row_sums(R0);                          // n x 1
    dense_matrix resp = R0 / S;                             // n x k
    dense_matrix loglik = sum(log(S) + M);                  // sink

    // ---- M-step statistics (sinks of the same DAG) ----
    dense_matrix Nk = col_sums(resp);                       // 1 x k
    dense_matrix Mk = crossprod(resp, X);                   // k x p
    std::vector<dense_matrix> scat;
    scat.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      dense_matrix rc = select_cols(resp, {c});
      scat.push_back(crossprod(X * rc, X));                 // p x p each
    }

    std::vector<dense_matrix> targets{loglik, Nk, Mk};
    targets.insert(targets.end(), scat.begin(), scat.end());
    materialize_all(targets);  // ONE pass over X per EM iteration

    const double mean_ll = loglik.scalar() / n;
    model.loglik_history.push_back(mean_ll);
    ++model.iterations;

    // ---- M-step updates on the host ----
    const smat nk = Nk.to_smat();
    const smat mk = Mk.to_smat();
    for (std::size_t c = 0; c < k; ++c) {
      const double mass = std::max(nk(0, c), 1e-12);
      model.weights[c] = mass / n;
      for (std::size_t j = 0; j < p; ++j)
        model.means(c, j) = mk(c, j) / mass;
      smat sc = scat[c].to_smat();
      for (std::size_t j = 0; j < p; ++j)
        for (std::size_t i = 0; i < p; ++i)
          sc(i, j) = sc(i, j) / mass - model.means(c, i) * model.means(c, j);
      model.covariances[c] = std::move(sc);
    }

    const std::size_t h = model.loglik_history.size();
    if (h >= 2 && std::abs(model.loglik_history[h - 1] -
                           model.loglik_history[h - 2]) < opts.loglik_tol) {
      model.converged = true;
      break;
    }
  }
  return model;
}

dense_matrix gmm_predict(const dense_matrix& X, const gmm_result& model) {
  return which_max_row(log_joint(X, model, 1e-9));
}

}  // namespace flashr::ml
