#include "ml/design.h"

#include "common/error.h"

namespace flashr::ml {

design::design(const dense_matrix& X, bool intercept)
    : x_(intercept ? X.cast(promote(X.type(), scalar_type::f64)) : X),
      intercept_(intercept) {}

dense_matrix design::times(const smat& W) const {
  FLASHR_CHECK_SHAPE(W.nrow() == ncol(), "design: dimension mismatch");
  if (!intercept_) return matmul(x_, W);
  const std::size_t p = x_.ncol(), k = W.ncol();
  smat wx(p, k), icpt(1, k);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t j = 0; j < p; ++j) wx(j, t) = W(j, t);
    icpt(0, t) = W(p, t);
  }
  return sweep_cols(matmul(x_, wx), icpt, bop_id::add);
}

design::crossprod_sinks design::crossprod(const dense_matrix& R) const {
  crossprod_sinks s;
  s.x_r = flashr::crossprod(x_, R);
  if (intercept_) s.ones_r = col_sums(R);
  return s;
}

smat design::crossprod_sinks::to_smat() const {
  const smat xr = x_r.to_smat();
  if (!ones_r.valid()) return xr;
  const smat ones = ones_r.to_smat();
  smat out(xr.nrow() + 1, xr.ncol());
  for (std::size_t t = 0; t < xr.ncol(); ++t) {
    for (std::size_t j = 0; j < xr.nrow(); ++j) out(j, t) = xr(j, t);
    out(xr.nrow(), t) = ones(0, t);
  }
  return out;
}

}  // namespace flashr::ml
