// Multinomial logistic (softmax) regression with LBFGS — the multi-class
// extension of §4.1's logistic regression, exercising the engine's wide-sink
// path: each objective evaluation is ONE pass over X producing the scalar
// loss and the full p x k gradient t(X) %*% (softmax(XW) - onehot(y)) as
// sinks of a single DAG. The intercept is fitted without building
// cbind(X, 1) (ml/design.h).
#pragma once

#include <vector>

#include "blas/smat.h"
#include "core/dense_matrix.h"

namespace flashr::ml {

struct softmax_options {
  int max_iters = 100;
  double loss_tol = 1e-6;
  double l2 = 1e-6;
  bool add_intercept = true;
};

struct softmax_model {
  smat w;  ///< (p [+1]) x k coefficients
  std::size_t num_classes = 0;
  bool has_intercept = false;
  std::vector<double> loss_history;
  int iterations = 0;
  bool converged = false;
};

softmax_model softmax_regression(const dense_matrix& X, const dense_matrix& y,
                                 std::size_t num_classes,
                                 const softmax_options& opts = {});

/// Predicted class per row (n x 1 int64). Lazy.
dense_matrix softmax_predict(const dense_matrix& X, const softmax_model& m);

}  // namespace flashr::ml
