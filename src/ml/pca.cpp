#include "ml/pca.h"

#include "blas/blas.h"
#include "common/error.h"
#include "ml/stats.h"

namespace flashr::ml {

pca_result pca(const dense_matrix& X, std::size_t ncomp) {
  const std::size_t p = X.ncol();
  if (ncomp == 0 || ncomp > p) ncomp = p;
  moments m = compute_moments(X);
  smat cov = covariance_from(m);

  std::vector<double> w(p);
  smat V(p, p);
  blas::jacobi_eigen(p, cov.data(), p, w.data(), V.data(), p);

  pca_result fit;
  fit.center = means_from(m);
  fit.eigenvalues.assign(w.begin(), w.begin() + static_cast<long>(ncomp));
  fit.rotation = smat(p, ncomp);
  for (std::size_t j = 0; j < ncomp; ++j)
    for (std::size_t i = 0; i < p; ++i) fit.rotation(i, j) = V(i, j);
  return fit;
}

dense_matrix pca_transform(const dense_matrix& X, const pca_result& fit) {
  FLASHR_CHECK_SHAPE(X.ncol() == fit.rotation.nrow(),
                     "pca_transform: dimension mismatch");
  dense_matrix centered = sweep_cols(X, fit.center, bop_id::sub);
  return matmul(centered, fit.rotation);
}

}  // namespace flashr::ml
