#include "ml/logistic.h"

#include <cmath>

#include "common/error.h"
#include "ml/design.h"
#include "ml/lbfgs.h"

namespace flashr::ml {

logistic_model logistic_regression(const dense_matrix& X,
                                   const dense_matrix& y,
                                   const logistic_options& opts) {
  FLASHR_CHECK_SHAPE(y.ncol() == 1 && y.nrow() == X.nrow(),
                     "logistic: y must be n x 1");
  const design d(X, opts.add_intercept);
  const dense_matrix yf = y.cast(scalar_type::f64);
  const std::size_t p = d.ncol();
  const double n = static_cast<double>(X.nrow());

  // Column t of the logits, loss terms and residuals belongs to trial point
  // t, so one pass evaluates the whole batch.
  auto objective = [&](const std::vector<std::vector<double>>& ws,
                       std::vector<std::vector<double>>& grads) {
    const std::size_t k = ws.size();
    smat w(p, k);
    for (std::size_t t = 0; t < k; ++t)
      std::copy(ws[t].begin(), ws[t].end(), w.data() + t * p);
    dense_matrix m = d.times(w);  // n x k logits
    // Numerically stable log-loss: log(1 + exp(-|m|)) + max(m, 0) - y*m.
    // (map2 broadcasts only its second operand, hence m * yf.)
    dense_matrix loss_sink =
        col_sums(log1p(exp(-abs(m))) + pmax(m, 0.0) - m * yf);  // 1 x k
    design::crossprod_sinks grad_sink = d.crossprod(sigmoid(m) - yf);
    materialize_all({loss_sink, grad_sink.x_r, grad_sink.ones_r});  // ONE pass

    const smat losses = loss_sink.to_smat();
    const smat g = grad_sink.to_smat();  // p x k
    std::vector<double> out(k);
    for (std::size_t t = 0; t < k; ++t) {
      double loss = losses(0, t) / n;
      for (std::size_t j = 0; j < p; ++j) {
        grads[t][j] = g(j, t) / n;
        if (opts.l2 > 0 && (!opts.add_intercept || j + 1 < p)) {
          grads[t][j] += opts.l2 * ws[t][j];
          loss += 0.5 * opts.l2 * ws[t][j] * ws[t][j];
        }
      }
      out[t] = loss;
    }
    return out;
  };

  lbfgs_options lopts;
  lopts.max_iters = opts.max_iters;
  lopts.loss_tol = opts.loss_tol;
  lbfgs_result r =
      lbfgs_minimize_batch(objective, std::vector<double>(p, 0.0), lopts);

  logistic_model model;
  model.w = smat(p, 1);
  std::copy(r.x.begin(), r.x.end(), model.w.data());
  model.has_intercept = opts.add_intercept;
  model.loss_history = std::move(r.loss_history);
  model.iterations = r.iterations;
  model.converged = r.converged;
  return model;
}

dense_matrix logistic_predict_prob(const dense_matrix& X,
                                   const logistic_model& model) {
  return sigmoid(design(X, model.has_intercept).times(model.w));
}

dense_matrix logistic_predict(const dense_matrix& X,
                              const logistic_model& model) {
  return mapply2(logistic_predict_prob(X, model), 0.5, bop_id::ge);
}

}  // namespace flashr::ml
