#include "ml/linreg.h"

#include <cmath>

#include "blas/blas.h"
#include "common/error.h"
#include "ml/design.h"

namespace flashr::ml {

linreg_model linear_regression(const dense_matrix& X, const dense_matrix& y,
                               const linreg_options& opts) {
  FLASHR_CHECK_SHAPE(y.ncol() == 1 && y.nrow() == X.nrow(),
                     "linreg: y must be n x 1");
  const design d(X, opts.add_intercept);
  const dense_matrix yf = y.cast(scalar_type::f64);
  const std::size_t p = d.ncol();

  design::crossprod_sinks gram = d.crossprod(d.x());
  design::crossprod_sinks xty = d.crossprod(yf);
  dense_matrix ysum = sum(yf);
  dense_matrix ysq = sum(square(yf));
  materialize_all({gram.x_r, gram.ones_r, xty.x_r, xty.ones_r, ysum,
                   ysq});  // one pass over X and y

  // The sinks hold all columns of the Gramian but the intercept's. That one
  // mirrors the last row, t(X) %*% 1 folding the same rows as t(1) %*% X,
  // and ends in t(1) %*% 1, the row count.
  const smat gx = gram.to_smat();
  smat G0(p, p);
  for (std::size_t j = 0; j < gx.ncol(); ++j)
    for (std::size_t i = 0; i < p; ++i) G0(i, j) = gx(i, j);
  if (opts.add_intercept) {
    for (std::size_t i = 0; i + 1 < p; ++i) G0(i, p - 1) = gx(p - 1, i);
    G0(p - 1, p - 1) = static_cast<double>(X.nrow());
  }
  const smat xty0 = xty.to_smat();
  smat G = G0;
  smat b = xty0;
  for (std::size_t j = 0; j < p; ++j) {
    // Do not penalize the intercept.
    if (!opts.add_intercept || j + 1 < p) G(j, j) += opts.l2;
  }
  FLASHR_CHECK(blas::lu_solve(p, 1, G.data(), p, b.data(), p),
               "linreg: singular normal equations (try l2 > 0)");

  linreg_model m;
  m.w = b;
  m.has_intercept = opts.add_intercept;

  // R^2 from the one-pass moments: SSE = y'y - 2 w'X'y + w'Gw, with the
  // ORIGINAL (unridged) G.
  const double n = static_cast<double>(X.nrow());
  double wXy = 0, wGw = 0;
  for (std::size_t i = 0; i < p; ++i) {
    wXy += m.w(i, 0) * xty0(i, 0);
    for (std::size_t j = 0; j < p; ++j)
      wGw += m.w(i, 0) * G0(i, j) * m.w(j, 0);
  }
  const double yy = ysq.scalar();
  const double ybar = ysum.scalar() / n;
  const double sse = yy - 2 * wXy + wGw;
  const double sst = yy - n * ybar * ybar;
  m.r2 = sst > 0 ? 1.0 - sse / sst : 0.0;
  return m;
}

dense_matrix linreg_predict(const dense_matrix& X, const linreg_model& m) {
  return design(X, m.has_intercept).times(m.w);
}

svd_result svd(const dense_matrix& X, std::size_t ncomp) {
  const std::size_t p = X.ncol();
  if (ncomp == 0 || ncomp > p) ncomp = p;
  smat G = crossprod(X).to_smat();
  std::vector<double> w(p);
  smat V(p, p);
  blas::jacobi_eigen(p, G.data(), p, w.data(), V.data(), p);

  svd_result s;
  s.d.reserve(ncomp);
  s.v = smat(p, ncomp);
  for (std::size_t j = 0; j < ncomp; ++j) {
    s.d.push_back(std::sqrt(std::max(w[j], 0.0)));
    for (std::size_t i = 0; i < p; ++i) s.v(i, j) = V(i, j);
  }
  return s;
}

dense_matrix svd_u(const dense_matrix& X, const svd_result& s) {
  smat vs = s.v;
  for (std::size_t j = 0; j < vs.ncol(); ++j) {
    const double inv = s.d[j] > 0 ? 1.0 / s.d[j] : 0.0;
    for (std::size_t i = 0; i < vs.nrow(); ++i) vs(i, j) *= inv;
  }
  return matmul(X, vs);
}

}  // namespace flashr::ml
