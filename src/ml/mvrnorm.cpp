#include "ml/mvrnorm.h"

#include <cmath>

#include "blas/blas.h"
#include "common/error.h"

namespace flashr::ml {

dense_matrix mvrnorm(std::size_t n, const smat& mu, const smat& sigma,
                     std::uint64_t seed) {
  const std::size_t p = sigma.nrow();
  FLASHR_CHECK_SHAPE(sigma.ncol() == p, "mvrnorm: sigma must be square");
  FLASHR_CHECK_SHAPE(mu.size() == p, "mvrnorm: mu length mismatch");

  // MASS uses eigen() rather than Cholesky so semi-definite covariances are
  // accepted; negative eigenvalues within tolerance are clamped to zero.
  smat work = sigma;
  std::vector<double> w(p);
  smat V(p, p);
  blas::jacobi_eigen(p, work.data(), p, w.data(), V.data(), p);
  const double tol = 1e-9 * std::max(std::abs(w.front()), 1.0);
  for (double& ev : w) {
    FLASHR_CHECK(ev > -tol, "mvrnorm: sigma is not positive semi-definite");
    ev = ev < 0 ? 0 : ev;
  }
  // B = V diag(sqrt(w)) V^T, so X = mu + Z B (B symmetric).
  smat VD = V;
  for (std::size_t j = 0; j < p; ++j) {
    const double s = std::sqrt(w[j]);
    for (std::size_t i = 0; i < p; ++i) VD(i, j) *= s;
  }
  smat B = VD.mm(V.t());

  dense_matrix Z = dense_matrix::rnorm(n, p, 0.0, 1.0, seed);
  smat mu_row(1, p);
  for (std::size_t j = 0; j < p; ++j)
    mu_row(0, j) = mu.nrow() == 1 ? mu(0, j) : mu(j, 0);
  return sweep_cols(matmul(Z, B), mu_row, bop_id::add);
}

}  // namespace flashr::ml
