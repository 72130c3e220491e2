#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/error.h"

namespace flashr::ml {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double inf_norm(const std::vector<double>& a) {
  double m = 0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

/// Evaluate `xs` into `grads` and return their losses.
std::vector<double> evaluate(const batch_objective_fn& f,
                             const std::vector<std::vector<double>>& xs,
                             std::vector<std::vector<double>>& grads) {
  grads.resize(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) grads[i].resize(xs[i].size());
  std::vector<double> losses = f(xs, grads);
  FLASHR_CHECK(losses.size() == xs.size(),
               "lbfgs: the objective must return one loss per point");
  return losses;
}

/// The L-BFGS loop behind both forms: line-search batches double from one
/// trial up to `max_width` trials.
lbfgs_result minimize(const batch_objective_fn& f, std::vector<double> x0,
                      const lbfgs_options& opts, int max_width) {
  const std::size_t n = x0.size();
  lbfgs_result res;
  res.x = std::move(x0);

  std::vector<std::vector<double>> trials{res.x}, grads;
  double loss = evaluate(f, trials, grads)[0];
  std::vector<double> g = std::move(grads[0]);
  std::vector<double> direction(n), steps;
  res.loss_history.push_back(loss);

  // (s, y, rho) history for the two-loop recursion.
  std::deque<std::vector<double>> s_hist, y_hist;
  std::deque<double> rho_hist;

  for (int iter = 0; iter < opts.max_iters; ++iter) {
    if (inf_norm(g) < opts.grad_tol) {
      res.converged = true;
      break;
    }

    // Two-loop recursion: direction = -H g.
    direction = g;
    std::vector<double> alpha(s_hist.size());
    for (std::size_t i = s_hist.size(); i-- > 0;) {
      alpha[i] = rho_hist[i] * dot(s_hist[i], direction);
      for (std::size_t j = 0; j < n; ++j)
        direction[j] -= alpha[i] * y_hist[i][j];
    }
    if (!s_hist.empty()) {
      const double gamma = dot(s_hist.back(), y_hist.back()) /
                           std::max(dot(y_hist.back(), y_hist.back()), 1e-300);
      for (double& d : direction) d *= gamma;
    }
    for (std::size_t i = 0; i < s_hist.size(); ++i) {
      const double beta = rho_hist[i] * dot(y_hist[i], direction);
      for (std::size_t j = 0; j < n; ++j)
        direction[j] += (alpha[i] - beta) * s_hist[i][j];
    }
    for (double& d : direction) d = -d;

    double dir_deriv = dot(g, direction);
    if (dir_deriv >= 0) {
      // Not a descent direction (stale curvature) — restart with steepest
      // descent.
      for (std::size_t j = 0; j < n; ++j) direction[j] = -g[j];
      dir_deriv = -dot(g, g);
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
    }

    // Backtracking Armijo line search down the ladder 1, b, b^2, ...,
    // max_line_steps trials in batches of 1, 2, 4, ...: the first trial in
    // ladder order that passes wins, as in a one-at-a-time search.
    double step = 1.0;
    double new_loss = loss;
    bool accepted = false;
    std::size_t pick = 0;
    int tried = 0;
    for (int width = 1; tried < opts.max_line_steps;
         width = std::min(2 * width, max_width)) {
      const auto k = static_cast<std::size_t>(
          std::min(width, opts.max_line_steps - tried));
      trials.resize(k);
      steps.resize(k);
      for (std::size_t t = 0; t < k; ++t) {
        trials[t].resize(n);
        for (std::size_t j = 0; j < n; ++j)
          trials[t][j] = res.x[j] + step * direction[j];
        steps[t] = step;
        step *= opts.backtrack;
      }
      const std::vector<double> losses = evaluate(f, trials, grads);
      tried += static_cast<int>(k);
      for (std::size_t t = 0; t < k; ++t) {
        if (std::isfinite(losses[t]) &&
            losses[t] <= loss + opts.armijo_c * steps[t] * dir_deriv) {
          accepted = true;
          pick = t;
          new_loss = losses[t];
          break;
        }
      }
      if (accepted) break;
    }
    if (!accepted) break;  // line search failed: give up at current point
    const std::vector<double>& x_new = trials[pick];
    const std::vector<double>& g_new = grads[pick];

    // Update curvature history.
    std::vector<double> s(n), y(n);
    for (std::size_t j = 0; j < n; ++j) {
      s[j] = x_new[j] - res.x[j];
      y[j] = g_new[j] - g[j];
    }
    const double sy = dot(s, y);
    if (sy > 1e-12) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (static_cast<int>(s_hist.size()) > opts.history) {
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    }

    res.x = x_new;
    g = g_new;
    const double prev = loss;
    loss = new_loss;
    res.loss_history.push_back(loss);
    ++res.iterations;
    if (std::abs(prev - loss) < opts.loss_tol) {
      res.converged = true;
      break;
    }
  }
  return res;
}

}  // namespace

lbfgs_result lbfgs_minimize(objective_fn f, std::vector<double> x0,
                            const lbfgs_options& opts) {
  const batch_objective_fn one_point =
      [&f](const std::vector<std::vector<double>>& xs,
           std::vector<std::vector<double>>& grads) {
        return std::vector<double>{f(xs.at(0), grads.at(0))};
      };
  return minimize(one_point, std::move(x0), opts, /*max_width=*/1);
}

lbfgs_result lbfgs_minimize_batch(batch_objective_fn f, std::vector<double> x0,
                                  const lbfgs_options& opts) {
  return minimize(f, std::move(x0), opts,
                  std::max(opts.max_line_steps, 1));
}

}  // namespace flashr::ml
