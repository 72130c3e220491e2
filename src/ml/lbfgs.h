// Limited-memory BFGS (Liu & Nocedal [16]), the optimizer the paper uses for
// logistic regression. Operates on small host parameter vectors; the
// objective callback is where the big data lives.
//
// Each iteration's backtracking Armijo search tries the steps 1, b, b^2, ...
// (b = lbfgs_options::backtrack) in order and accepts the first trial that
// decreases the loss enough. Every step of that ladder is known before the
// first trial runs, so the batch form evaluates it in batches of 1, 2, 4,
// 8, ... trial points per objective call, restarting at width 1 in every
// iteration; max_line_steps caps the trials of one search in both forms.
// A search that ends in its k-th trial costs ceil(log2(k + 1)) calls
// instead of k — for an out-of-core objective, k passes over the data
// become that many. Both forms accept the same trial, so the iterates, loss
// history and iteration count do not depend on the form; the batch form
// only evaluates up to k - 1 extra points that are thrown away.
#pragma once

#include <functional>
#include <vector>

namespace flashr::ml {

struct lbfgs_options {
  int max_iters = 100;
  int history = 8;          ///< stored (s, y) pairs
  double grad_tol = 1e-6;   ///< stop when ||g||_inf < grad_tol
  double loss_tol = 1e-9;   ///< stop when |loss_{i-1} - loss_i| < loss_tol
  double armijo_c = 1e-4;   ///< sufficient-decrease constant
  double backtrack = 0.5;   ///< step shrink factor
  int max_line_steps = 30;  ///< trials per line search
};

struct lbfgs_result {
  std::vector<double> x;
  std::vector<double> loss_history;  ///< loss per accepted iterate
  int iterations = 0;
  bool converged = false;
};

/// Objective: fills `grad` (same length as x) and returns the loss. The
/// single-point form calls it once per trial.
using objective_fn =
    std::function<double(const std::vector<double>& x, std::vector<double>& grad)>;

/// Batch objective: returns the losses of the points `xs`, in order, and
/// fills grads[i] (resized by the caller to the length of xs[i]) for each.
/// An out-of-core objective evaluates the whole batch in one pass.
using batch_objective_fn = std::function<std::vector<double>(
    const std::vector<std::vector<double>>& xs,
    std::vector<std::vector<double>>& grads)>;

lbfgs_result lbfgs_minimize(objective_fn f, std::vector<double> x0,
                            const lbfgs_options& opts = lbfgs_options());

/// Same iterates as lbfgs_minimize on the same objective; each line search
/// evaluates its trials in batches of 1, 2, 4, ... points.
lbfgs_result lbfgs_minimize_batch(batch_objective_fn f, std::vector<double> x0,
                                  const lbfgs_options& opts = lbfgs_options());

}  // namespace flashr::ml
