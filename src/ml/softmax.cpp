#include "ml/softmax.h"

#include <cmath>

#include "common/error.h"
#include "ml/design.h"
#include "ml/lbfgs.h"

namespace flashr::ml {

softmax_model softmax_regression(const dense_matrix& X, const dense_matrix& y,
                                 std::size_t num_classes,
                                 const softmax_options& opts) {
  FLASHR_CHECK(num_classes >= 2, "softmax: need at least two classes");
  FLASHR_CHECK_SHAPE(y.ncol() == 1 && y.nrow() == X.nrow(),
                     "softmax: y must be n x 1");
  const design d(X, opts.add_intercept);
  const dense_matrix yf = y.cast(scalar_type::f64);
  const std::size_t p = d.ncol();
  const std::size_t k = num_classes;
  const double n = static_cast<double>(X.nrow());

  // One-hot indicator of y, built lazily once and reused every iteration.
  std::vector<dense_matrix> ind;
  ind.reserve(k);
  for (std::size_t c = 0; c < k; ++c)
    ind.push_back(mapply2(yf, static_cast<double>(c), bop_id::eq));
  dense_matrix onehot = cbind(ind);
  onehot.set_cache(true);  // avoid rebuilding the indicators every pass

  auto objective = [&](const std::vector<double>& wv,
                       std::vector<double>& grad) -> double {
    smat w(p, k);
    std::copy(wv.begin(), wv.end(), w.data());
    dense_matrix scores = d.times(w);        // n x k
    dense_matrix m = agg_row(scores, agg_id::max_v);
    dense_matrix e = exp(scores - m);
    dense_matrix z = row_sums(e);            // n x 1
    dense_matrix prob = e / z;               // n x k
    // loss = sum(log z + m - score_y) / n; score_y via the one-hot mask.
    dense_matrix score_y = row_sums(scores * onehot);
    dense_matrix loss_sink = sum(log(z) + m - score_y);
    design::crossprod_sinks grad_sink = d.crossprod(prob - onehot);
    materialize_all({loss_sink, grad_sink.x_r, grad_sink.ones_r});  // ONE pass

    smat g = grad_sink.to_smat();  // p x k
    double loss = loss_sink.scalar() / n;
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t j = 0; j < p; ++j) {
        const std::size_t idx = c * p + j;
        grad[idx] = g(j, c) / n;
        if (opts.l2 > 0 && (!opts.add_intercept || j + 1 < p)) {
          grad[idx] += opts.l2 * wv[idx];
          loss += 0.5 * opts.l2 * wv[idx] * wv[idx];
        }
      }
    return loss;
  };

  lbfgs_options lopts;
  lopts.max_iters = opts.max_iters;
  lopts.loss_tol = opts.loss_tol;
  lbfgs_result r =
      lbfgs_minimize(objective, std::vector<double>(p * k, 0.0), lopts);

  softmax_model model;
  model.w = smat(p, k);
  std::copy(r.x.begin(), r.x.end(), model.w.data());
  model.num_classes = k;
  model.has_intercept = opts.add_intercept;
  model.loss_history = std::move(r.loss_history);
  model.iterations = r.iterations;
  model.converged = r.converged;
  return model;
}

dense_matrix softmax_predict(const dense_matrix& X, const softmax_model& m) {
  return which_max_row(design(X, m.has_intercept).times(m.w));
}

}  // namespace flashr::ml
