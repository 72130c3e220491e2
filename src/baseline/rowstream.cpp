#include "baseline/rowstream.h"

#include <cmath>
#include <numbers>

#include "blas/blas.h"
#include "common/config.h"
#include "common/error.h"
#include "ml/lbfgs.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"

namespace flashr::baseline {

namespace {

/// Rows handed to a worker per dispatch.
constexpr std::size_t kRowBatch = 4096;

template <typename Fn>
void parallel_rows(std::size_t nrow, Fn&& fn) {
  thread_pool& pool = thread_pool::global();
  const std::size_t batches = (nrow + kRowBatch - 1) / kRowBatch;
  part_scheduler sched(batches, pool.size(), 1);
  pool.run_all([&](int thread_idx) {
    std::size_t b, e;
    while (sched.fetch(b, e))
      for (std::size_t batch = b; batch < e; ++batch) {
        const std::size_t r0 = batch * kRowBatch;
        const std::size_t r1 = std::min(r0 + kRowBatch, nrow);
        fn(thread_idx, r0, r1);
      }
  });
}

}  // namespace

rs_matrix rs_map(const rs_matrix& in, std::size_t out_cols,
                 const record_fn& fn) {
  rs_matrix out(in.nrow(), out_cols);
  parallel_rows(in.nrow(), [&](int, std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) fn(in.row(i), out.row(i));
  });
  return out;
}

rs_matrix rs_zip(const rs_matrix& a, const rs_matrix& b, std::size_t out_cols,
                 const std::function<void(const double*, const double*,
                                          double*)>& fn) {
  FLASHR_CHECK_SHAPE(a.nrow() == b.nrow(), "rs_zip: row counts disagree");
  rs_matrix out(a.nrow(), out_cols);
  parallel_rows(a.nrow(), [&](int, std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) fn(a.row(i), b.row(i), out.row(i));
  });
  return out;
}

std::vector<double> rs_aggregate(const rs_matrix& in, std::size_t state_len,
                                 const std::vector<double>& init,
                                 const fold_fn& fold,
                                 const combine_fn& combine) {
  thread_pool& pool = thread_pool::global();
  std::vector<std::vector<double>> partials(
      static_cast<std::size_t>(pool.size()), init);
  parallel_rows(in.nrow(), [&](int thread_idx, std::size_t r0,
                               std::size_t r1) {
    double* state = partials[static_cast<std::size_t>(thread_idx)].data();
    for (std::size_t i = r0; i < r1; ++i) fold(in.row(i), state);
  });
  std::vector<double> total = init;
  for (const auto& part : partials) combine(total.data(), part.data());
  FLASHR_ASSERT(total.size() == state_len, "rs_aggregate: state size");
  return total;
}

rs_matrix rs_from_smat(const smat& m) {
  rs_matrix out(m.nrow(), m.ncol());
  for (std::size_t i = 0; i < m.nrow(); ++i)
    for (std::size_t j = 0; j < m.ncol(); ++j) out.at(i, j) = m(i, j);
  return out;
}

smat rs_to_smat(const rs_matrix& m) {
  smat out(m.nrow(), m.ncol());
  for (std::size_t i = 0; i < m.nrow(); ++i)
    for (std::size_t j = 0; j < m.ncol(); ++j) out(i, j) = m.at(i, j);
  return out;
}

namespace {

std::vector<double> vec_add_combine_init(std::size_t n) {
  return std::vector<double>(n, 0.0);
}

combine_fn add_combine(std::size_t n) {
  return [n](double* into, const double* from) {
    for (std::size_t i = 0; i < n; ++i) into[i] += from[i];
  };
}

/// colSums and Gramian, as two SEPARATE passes (the per-op materialization
/// model under test).
void rs_moments(const rs_matrix& X, std::vector<double>& col_sums,
                std::vector<double>& gram) {
  const std::size_t p = X.ncol();
  col_sums = rs_aggregate(
      X, p, vec_add_combine_init(p),
      [p](const double* row, double* s) {
        for (std::size_t j = 0; j < p; ++j) s[j] += row[j];
      },
      add_combine(p));
  gram = rs_aggregate(
      X, p * p, vec_add_combine_init(p * p),
      [p](const double* row, double* g) {
        for (std::size_t a = 0; a < p; ++a)
          for (std::size_t b = 0; b < p; ++b) g[b * p + a] += row[a] * row[b];
      },
      add_combine(p * p));
}

smat rs_covariance(const rs_matrix& X) {
  const std::size_t p = X.ncol();
  const double n = static_cast<double>(X.nrow());
  std::vector<double> s, g;
  rs_moments(X, s, g);
  smat cov(p, p);
  for (std::size_t b = 0; b < p; ++b)
    for (std::size_t a = 0; a < p; ++a)
      cov(a, b) = (g[b * p + a] - s[a] * s[b] / n) / (n - 1.0);
  return cov;
}

}  // namespace

smat rs_correlation(const rs_matrix& X) {
  smat cov = rs_covariance(X);
  const std::size_t p = cov.nrow();
  smat cor(p, p);
  for (std::size_t b = 0; b < p; ++b)
    for (std::size_t a = 0; a < p; ++a) {
      const double d = std::sqrt(cov(a, a) * cov(b, b));
      cor(a, b) = d > 0 ? cov(a, b) / d : (a == b ? 1.0 : 0.0);
    }
  return cor;
}

std::vector<double> rs_pca_eigenvalues(const rs_matrix& X) {
  smat cov = rs_covariance(X);
  const std::size_t p = cov.nrow();
  std::vector<double> w(p);
  blas::jacobi_eigen(p, cov.data(), p, w.data(), nullptr, 0);
  return w;
}

smat rs_naive_bayes_train(const rs_matrix& X, const rs_matrix& y,
                          std::size_t k) {
  const std::size_t p = X.ncol();
  // Three separate passes: counts, sums, sums of squares (each operator
  // materializes on its own, like the groupBy stages of the JVM systems).
  std::vector<double> counts = rs_aggregate(
      y, k, vec_add_combine_init(k),
      [k](const double* row, double* s) {
        const auto c = static_cast<std::size_t>(row[0]);
        if (c < k) s[c] += 1;
      },
      add_combine(k));
  // Zip X and y into an augmented dataset first (another materialization).
  rs_matrix aug = rs_zip(X, y, p + 1,
                         [p](const double* x, const double* lab, double* out) {
                           for (std::size_t j = 0; j < p; ++j) out[j] = x[j];
                           out[p] = lab[0];
                         });
  std::vector<double> sums = rs_aggregate(
      aug, k * p, vec_add_combine_init(k * p),
      [k, p](const double* row, double* s) {
        const auto c = static_cast<std::size_t>(row[p]);
        if (c < k)
          for (std::size_t j = 0; j < p; ++j) s[j * k + c] += row[j];
      },
      add_combine(k * p));
  std::vector<double> sq = rs_aggregate(
      aug, k * p, vec_add_combine_init(k * p),
      [k, p](const double* row, double* s) {
        const auto c = static_cast<std::size_t>(row[p]);
        if (c < k)
          for (std::size_t j = 0; j < p; ++j) s[j * k + c] += row[j] * row[j];
      },
      add_combine(k * p));

  const double n = static_cast<double>(X.nrow());
  smat model(k, 2 * p + 1);
  for (std::size_t c = 0; c < k; ++c) {
    const double nc = std::max(counts[c], 1.0);
    for (std::size_t j = 0; j < p; ++j) {
      const double mu = sums[j * k + c] / nc;
      model(c, j) = mu;
      model(c, p + j) = std::max(sq[j * k + c] / nc - mu * mu, 1e-9);
    }
    model(c, 2 * p) = counts[c] / n;
  }
  return model;
}

smat rs_logistic(const rs_matrix& X, const rs_matrix& y, int max_iters,
                 double loss_tol) {
  const std::size_t p = X.ncol() + 1;  // + intercept
  const double n = static_cast<double>(X.nrow());
  rs_matrix aug = rs_zip(X, y, p + 1,
                         [&](const double* x, const double* lab, double* out) {
                           for (std::size_t j = 0; j + 1 < p; ++j) out[j] = x[j];
                           out[p - 1] = 1.0;
                           out[p] = lab[0];
                         });

  auto objective = [&](const std::vector<double>& w,
                       std::vector<double>& grad) {
    // Pass 1: logits + loss; pass 2: gradient. Two separate aggregations —
    // the per-op model (Spark evaluates loss and gradient as separate
    // actions unless hand-fused).
    std::vector<double> loss = rs_aggregate(
        aug, 1, {0.0},
        [&](const double* row, double* s) {
          double m = 0;
          for (std::size_t j = 0; j < p; ++j) m += row[j] * w[j];
          const double yy = row[p];
          s[0] += std::log1p(std::exp(-std::abs(m))) + std::max(m, 0.0) -
                  yy * m;
        },
        add_combine(1));
    std::vector<double> g = rs_aggregate(
        aug, p, vec_add_combine_init(p),
        [&](const double* row, double* s) {
          double m = 0;
          for (std::size_t j = 0; j < p; ++j) m += row[j] * w[j];
          const double r = 1.0 / (1.0 + std::exp(-m)) - row[p];
          for (std::size_t j = 0; j < p; ++j) s[j] += r * row[j];
        },
        add_combine(p));
    for (std::size_t j = 0; j < p; ++j) grad[j] = g[j] / n;
    return loss[0] / n;
  };

  ml::lbfgs_options o;
  o.max_iters = max_iters;
  o.loss_tol = loss_tol;
  ml::lbfgs_result r =
      ml::lbfgs_minimize(objective, std::vector<double>(p, 0.0), o);
  smat w(p, 1);
  std::copy(r.x.begin(), r.x.end(), w.data());
  return w;
}

smat rs_kmeans(const rs_matrix& X, std::size_t k, int max_iters,
               const smat& init_centers) {
  const std::size_t p = X.ncol();
  smat centers = init_centers;
  for (int iter = 0; iter < max_iters; ++iter) {
    // Pass 1: assignments (materialized); pass 2: counts; pass 3: sums.
    rs_matrix assign = rs_map(X, 1, [&](const double* x, double* out) {
      double best = 1e300;
      std::size_t arg = 0;
      for (std::size_t c = 0; c < k; ++c) {
        double d = 0;
        for (std::size_t j = 0; j < p; ++j) {
          const double t = x[j] - centers(c, j);
          d += t * t;
        }
        if (d < best) {
          best = d;
          arg = c;
        }
      }
      out[0] = static_cast<double>(arg);
    });
    std::vector<double> counts = rs_aggregate(
        assign, k, vec_add_combine_init(k),
        [k](const double* row, double* s) {
          s[static_cast<std::size_t>(row[0])] += 1;
        },
        add_combine(k));
    rs_matrix aug = rs_zip(X, assign, p + 1,
                           [p](const double* x, const double* a, double* out) {
                             for (std::size_t j = 0; j < p; ++j) out[j] = x[j];
                             out[p] = a[0];
                           });
    std::vector<double> sums = rs_aggregate(
        aug, k * p, vec_add_combine_init(k * p),
        [k, p](const double* row, double* s) {
          const auto c = static_cast<std::size_t>(row[p]);
          for (std::size_t j = 0; j < p; ++j) s[j * k + c] += row[j];
        },
        add_combine(k * p));
    for (std::size_t c = 0; c < k; ++c)
      if (counts[c] > 0)
        for (std::size_t j = 0; j < p; ++j)
          centers(c, j) = sums[j * k + c] / counts[c];
  }
  return centers;
}

smat rs_lda_pooled_cov(const rs_matrix& X, const rs_matrix& y,
                       std::size_t num_classes) {
  const std::size_t p = X.ncol();
  const std::size_t k = num_classes;
  const double n = static_cast<double>(X.nrow());
  // Separate passes: counts, class sums, Gramian (the per-op model).
  std::vector<double> counts = rs_aggregate(
      y, k, vec_add_combine_init(k),
      [k](const double* row, double* s) {
        const auto c = static_cast<std::size_t>(row[0]);
        if (c < k) s[c] += 1;
      },
      add_combine(k));
  rs_matrix aug = rs_zip(X, y, p + 1,
                         [p](const double* x, const double* lab, double* out) {
                           for (std::size_t j = 0; j < p; ++j) out[j] = x[j];
                           out[p] = lab[0];
                         });
  std::vector<double> sums = rs_aggregate(
      aug, k * p, vec_add_combine_init(k * p),
      [k, p](const double* row, double* s) {
        const auto c = static_cast<std::size_t>(row[p]);
        if (c < k)
          for (std::size_t j = 0; j < p; ++j) s[j * k + c] += row[j];
      },
      add_combine(k * p));
  std::vector<double> gram = rs_aggregate(
      X, p * p, vec_add_combine_init(p * p),
      [p](const double* row, double* g) {
        for (std::size_t a = 0; a < p; ++a)
          for (std::size_t b = 0; b < p; ++b) g[b * p + a] += row[a] * row[b];
      },
      add_combine(p * p));

  smat means(k, p);
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < p; ++j)
      means(c, j) = sums[j * k + c] / std::max(counts[c], 1.0);
  smat W(p, p);
  for (std::size_t b = 0; b < p; ++b)
    for (std::size_t a = 0; a < p; ++a) {
      double between = 0;
      for (std::size_t c = 0; c < k; ++c)
        between += counts[c] * means(c, a) * means(c, b);
      W(a, b) = (gram[b * p + a] - between) /
                (n - static_cast<double>(k));
    }
  return W;
}

double rs_gmm(const rs_matrix& X, std::size_t k, int max_iters,
              const smat& init_means) {
  const std::size_t p = X.ncol();
  const double n = static_cast<double>(X.nrow());
  smat means = init_means;
  std::vector<smat> covs(k, smat::identity(p));
  std::vector<double> weights(k, 1.0 / static_cast<double>(k));
  double mean_ll = 0;

  for (int iter = 0; iter < max_iters; ++iter) {
    // Component transforms on the host.
    std::vector<smat> As;
    std::vector<double> log_norms;
    for (std::size_t c = 0; c < k; ++c) {
      smat L = covs[c];
      for (std::size_t i = 0; i < p; ++i) L(i, i) += 1e-6;
      FLASHR_CHECK(blas::cholesky(p, L.data(), p), "rs_gmm: bad covariance");
      smat A = smat::identity(p);
      for (std::size_t j = 0; j < p; ++j)
        blas::backward_subst_t(p, L.data(), p, A.data() + j * p);
      As.push_back(std::move(A));
      log_norms.push_back(std::log(std::max(weights[c], 1e-300)) -
                          0.5 * blas::cholesky_logdet(p, L.data(), p) -
                          0.5 * static_cast<double>(p) *
                              std::log(2.0 * std::numbers::pi));
    }
    // Pass 1: responsibilities (materialized n x k) + loglik.
    rs_matrix resp = rs_map(X, k, [&](const double* x, double* out) {
      double mx = -1e300;
      for (std::size_t c = 0; c < k; ++c) {
        double q = 0;
        for (std::size_t j = 0; j < p; ++j) {
          double yj = 0;
          for (std::size_t i = 0; i < p; ++i)
            yj += (x[i] - means(c, i)) * As[c](i, j);
          q += yj * yj;
        }
        out[c] = -0.5 * q + log_norms[c];
        mx = std::max(mx, out[c]);
      }
      double s = 0;
      for (std::size_t c = 0; c < k; ++c) s += std::exp(out[c] - mx);
      for (std::size_t c = 0; c < k; ++c)
        out[c] = std::exp(out[c] - mx) / s;
    });
    std::vector<double> ll = rs_aggregate(
        X, 1, {0.0},
        [&](const double* x, double* s) {
          double mx = -1e300;
          std::vector<double> lc(k);
          for (std::size_t c = 0; c < k; ++c) {
            double q = 0;
            for (std::size_t j = 0; j < p; ++j) {
              double yj = 0;
              for (std::size_t i = 0; i < p; ++i)
                yj += (x[i] - means(c, i)) * As[c](i, j);
              q += yj * yj;
            }
            lc[c] = -0.5 * q + log_norms[c];
            mx = std::max(mx, lc[c]);
          }
          double acc = 0;
          for (std::size_t c = 0; c < k; ++c) acc += std::exp(lc[c] - mx);
          s[0] += std::log(acc) + mx;
        },
        add_combine(1));
    mean_ll = ll[0] / n;

    // Passes 2..: masses, weighted means, weighted scatters.
    std::vector<double> Nk = rs_aggregate(
        resp, k, vec_add_combine_init(k),
        [k](const double* r, double* s) {
          for (std::size_t c = 0; c < k; ++c) s[c] += r[c];
        },
        add_combine(k));
    rs_matrix aug = rs_zip(X, resp, p + k,
                           [p, k](const double* x, const double* r, double* o) {
                             for (std::size_t j = 0; j < p; ++j) o[j] = x[j];
                             for (std::size_t c = 0; c < k; ++c) o[p + c] = r[c];
                           });
    std::vector<double> wsum = rs_aggregate(
        aug, k * p, vec_add_combine_init(k * p),
        [k, p](const double* row, double* s) {
          for (std::size_t c = 0; c < k; ++c)
            for (std::size_t j = 0; j < p; ++j)
              s[j * k + c] += row[p + c] * row[j];
        },
        add_combine(k * p));
    std::vector<double> wscat = rs_aggregate(
        aug, k * p * p, vec_add_combine_init(k * p * p),
        [k, p](const double* row, double* s) {
          for (std::size_t c = 0; c < k; ++c)
            for (std::size_t a = 0; a < p; ++a)
              for (std::size_t b = 0; b < p; ++b)
                s[(c * p + b) * p + a] += row[p + c] * row[a] * row[b];
        },
        add_combine(k * p * p));
    for (std::size_t c = 0; c < k; ++c) {
      const double mass = std::max(Nk[c], 1e-12);
      weights[c] = mass / n;
      for (std::size_t j = 0; j < p; ++j) means(c, j) = wsum[j * k + c] / mass;
      for (std::size_t b = 0; b < p; ++b)
        for (std::size_t a = 0; a < p; ++a)
          covs[c](a, b) =
              wscat[(c * p + b) * p + a] / mass - means(c, a) * means(c, b);
    }
  }
  return mean_ll;
}

}  // namespace flashr::baseline
