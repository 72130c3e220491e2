// Logistic regression with LBFGS (§4.1). Each batch of line-search trial
// points (ml/lbfgs.h) is a single DAG execution (one pass over X) that
// produces, for every point w, both the gradient sink
// t(X) %*% (sigmoid(Xw) - y) / n and the log-loss sink — the same structure
// as the paper's Figure 2 example, with LBFGS replacing plain gradient
// descent as in the evaluation. The intercept is fitted without building
// cbind(X, 1) (ml/design.h). Converges when
// logloss_{i-1} - logloss_i < 1e-6 (§4.1).
#pragma once

#include <vector>

#include "blas/smat.h"
#include "core/dense_matrix.h"

namespace flashr::ml {

struct logistic_options {
  int max_iters = 100;
  double loss_tol = 1e-6;  ///< the paper's convergence threshold
  double l2 = 0.0;         ///< ridge penalty
  bool add_intercept = true;
};

struct logistic_model {
  smat w;        ///< (p [+1 intercept]) x 1
  bool has_intercept = false;
  std::vector<double> loss_history;
  int iterations = 0;
  bool converged = false;
};

logistic_model logistic_regression(const dense_matrix& X,
                                   const dense_matrix& y,
                                   const logistic_options& opts = {});

/// P(y = 1 | x) per row. Lazy.
dense_matrix logistic_predict_prob(const dense_matrix& X,
                                   const logistic_model& model);
/// Hard 0/1 prediction per row. Lazy.
dense_matrix logistic_predict(const dense_matrix& X,
                              const logistic_model& model);

}  // namespace flashr::ml
