// The design matrix [X, 1] of a model with an intercept, used without being
// built.
//
// cbind(X, 1) would copy X next to a generated column of ones in every pass
// that reads it, only to feed two products. Both split instead, and every
// output element keeps the fold it has over the built matrix, so a fit with
// an intercept equals, bit for bit, the fit of cbind(X, 1) without one
// (DESIGN.md §6, invariant 8):
//  * [X, 1] %*% W is X %*% W[1:p, ] swept by W's last row. inner_prod
//    folds each output over the columns in order, so the ones column's
//    term is the last addition either way, and 1 * w is exact.
//  * t([X, 1]) %*% R is crossprod(X, R) stacked over col_sums(R). tmm_acc
//    and agg_col_acc fold each output over the rows in the same order, and
//    1 * r is exact.
#pragma once

#include "blas/smat.h"
#include "core/dense_matrix.h"

namespace flashr::ml {

class design {
 public:
  /// With an intercept, X is cast to promote(X.type(), f64), the type of
  /// cbind(X, 1); without one, it is used as it is.
  design(const dense_matrix& X, bool intercept);

  /// X as the products read it.
  const dense_matrix& x() const { return x_; }
  /// Columns of [X, 1], or of X without an intercept.
  std::size_t ncol() const { return x_.ncol() + (intercept_ ? 1 : 0); }

  /// [X, 1] %*% W for an ncol() x k matrix W. Lazy, n x k.
  dense_matrix times(const smat& W) const;

  /// t([X, 1]) %*% R as two sinks, to be materialized together with the
  /// pass's other sinks (materialize_all skips the empty `ones_r`).
  struct crossprod_sinks {
    dense_matrix x_r;     ///< crossprod(X, R), p x k
    dense_matrix ones_r;  ///< col_sums(R), 1 x k; empty without intercept
    /// The ncol() x k product, X's rows first.
    smat to_smat() const;
  };
  crossprod_sinks crossprod(const dense_matrix& R) const;

 private:
  dense_matrix x_;
  bool intercept_;
};

}  // namespace flashr::ml
