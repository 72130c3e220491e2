#include "ml/lda.h"

#include <cmath>

#include "blas/blas.h"
#include "common/error.h"

namespace flashr::ml {

lda_model lda_train(const dense_matrix& X, const dense_matrix& y,
                    std::size_t num_classes) {
  const std::size_t p = X.ncol();
  const double n = static_cast<double>(X.nrow());
  const std::size_t k = num_classes;
  FLASHR_CHECK(n > static_cast<double>(k), "lda: need more rows than classes");

  dense_matrix gram = crossprod(X);
  dense_matrix sums = groupby_row(X, y, k, agg_id::sum);
  dense_matrix cnt = count_groups(y, k);
  materialize_all({gram, sums, cnt});  // ONE pass over X

  const smat G = gram.to_smat();
  const smat S = sums.to_smat();
  const smat C = cnt.to_smat();

  lda_model m;
  m.num_classes = k;
  m.priors.resize(k);
  m.means = smat(k, p);
  for (std::size_t c = 0; c < k; ++c) {
    const double nc = std::max(C(c, 0), 1.0);
    m.priors[c] = C(c, 0) / n;
    for (std::size_t j = 0; j < p; ++j) m.means(c, j) = S(c, j) / nc;
  }

  // Pooled within-class covariance:
  // W = (t(X)X - sum_c N_c mu_c mu_c^T) / (n - k).
  m.pooled_cov = smat(p, p);
  for (std::size_t j = 0; j < p; ++j)
    for (std::size_t i = 0; i < p; ++i) {
      double between = 0;
      for (std::size_t c = 0; c < k; ++c)
        between += C(c, 0) * m.means(c, i) * m.means(c, j);
      m.pooled_cov(i, j) = (G(i, j) - between) / (n - static_cast<double>(k));
    }

  // Discriminant functions: delta_c(x) = x^T W^{-1} mu_c
  //   - 0.5 mu_c^T W^{-1} mu_c + log prior_c.
  smat Winv = m.pooled_cov;
  for (std::size_t i = 0; i < p; ++i) Winv(i, i) += 1e-9;  // ridge
  FLASHR_CHECK(blas::spd_inverse(p, Winv.data(), p),
               "lda: singular within-class covariance");
  m.coef = Winv.mm(m.means.t());  // p x k
  m.intercept = smat(1, k);
  for (std::size_t c = 0; c < k; ++c) {
    double quad = 0;
    for (std::size_t j = 0; j < p; ++j) quad += m.means(c, j) * m.coef(j, c);
    m.intercept(0, c) =
        -0.5 * quad + std::log(std::max(m.priors[c], 1e-300));
  }

  // MASS-style discriminant axes: eigenvectors of W^{-1/2} B W^{-1/2} mapped
  // back through the whitening, where B is the between-class covariance of
  // the (prior-weighted) class means.
  if (k >= 2) {
    smat grand(1, p);
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t j = 0; j < p; ++j)
        grand(0, j) += m.priors[c] * m.means(c, j);
    smat B(p, p);
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t j = 0; j < p; ++j)
        for (std::size_t i = 0; i < p; ++i)
          B(i, j) += m.priors[c] * (m.means(c, i) - grand(0, i)) *
                     (m.means(c, j) - grand(0, j));
    // Whiten: W = L L^T; Bw = L^{-1} B L^{-T}.
    smat L = m.pooled_cov;
    for (std::size_t i = 0; i < p; ++i) L(i, i) += 1e-9;
    FLASHR_CHECK(blas::cholesky(p, L.data(), p), "lda: cholesky failed");
    smat Bw = B;
    for (std::size_t j = 0; j < p; ++j)
      blas::forward_subst(p, L.data(), p, Bw.data() + j * p);  // L^{-1} B
    smat BwT = Bw.t();
    for (std::size_t j = 0; j < p; ++j)
      blas::forward_subst(p, L.data(), p, BwT.data() + j * p);  // L^{-1} B^T
    smat sym = BwT.t();
    std::vector<double> w(p);
    smat V(p, p);
    blas::jacobi_eigen(p, sym.data(), p, w.data(), V.data(), p);
    const std::size_t axes = std::min(p, k - 1);
    m.scaling = smat(p, axes);
    for (std::size_t j = 0; j < axes; ++j) {
      // scaling_j = L^{-T} v_j.
      std::vector<double> col(p);
      for (std::size_t i = 0; i < p; ++i) col[i] = V(i, j);
      blas::backward_subst_t(p, L.data(), p, col.data());
      for (std::size_t i = 0; i < p; ++i) m.scaling(i, j) = col[i];
    }
  }
  return m;
}

dense_matrix lda_predict(const dense_matrix& X, const lda_model& model) {
  FLASHR_CHECK_SHAPE(X.ncol() == model.coef.nrow(),
                     "lda_predict: dimension mismatch");
  dense_matrix scores =
      sweep_cols(matmul(X, model.coef), model.intercept, bop_id::add);
  return which_max_row(scores);
}

dense_matrix lda_transform(const dense_matrix& X, const lda_model& model) {
  FLASHR_CHECK(model.scaling.size() > 0, "lda_transform: no axes (k < 2)");
  return matmul(X, model.scaling);
}

}  // namespace flashr::ml
