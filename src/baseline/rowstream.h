// rowstream: the architectural stand-in for H2O / Spark MLlib (Fig 7).
//
// The paper attributes its 3-20x advantage over those systems to execution
// architecture: "H2O and MLlib implement non-BLAS operations with Java and
// Scala. Spark materializes operations such as aggregation separately. In
// contrast, FlashR fuses matrix operations and performs two-level
// partitioning to minimize data movement in the memory hierarchy." We cannot
// run the JVM systems in this container, so this module reproduces their
// execution model in C++ for an honest architectural comparison:
//
//  * datasets are materialized row-major record arrays (the RDD model);
//  * every operator is a separate parallel pass that fully materializes its
//    output before the next operator runs (no fusion);
//  * element functions are opaque std::function objects invoked per row
//    (the boxed-closure dispatch of the iterator model).
//
// What this baseline does NOT model is JVM constant factors (GC, boxing of
// primitives), so measured gaps are a lower bound on the paper's.
#pragma once

#include <functional>
#include <vector>

#include "blas/smat.h"

namespace flashr::baseline {

/// A fully materialized row-major dataset (one record per row).
class rs_matrix {
 public:
  rs_matrix() = default;
  rs_matrix(std::size_t nrow, std::size_t ncol)
      : nrow_(nrow), ncol_(ncol), data_(nrow * ncol) {}

  std::size_t nrow() const { return nrow_; }
  std::size_t ncol() const { return ncol_; }
  double* row(std::size_t i) { return data_.data() + i * ncol_; }
  const double* row(std::size_t i) const { return data_.data() + i * ncol_; }
  double& at(std::size_t i, std::size_t j) { return data_[i * ncol_ + j]; }
  double at(std::size_t i, std::size_t j) const { return data_[i * ncol_ + j]; }

 private:
  std::size_t nrow_ = 0;
  std::size_t ncol_ = 0;
  std::vector<double> data_;
};

/// Per-record transform: out_row (out_cols wide) from in_row.
using record_fn =
    std::function<void(const double* in_row, double* out_row)>;
/// Per-record accumulation into a state vector.
using fold_fn = std::function<void(const double* in_row, double* state)>;
/// Combine two partial states.
using combine_fn = std::function<void(double* into, const double* from)>;

/// One parallel pass: materialize a new dataset by mapping every record.
rs_matrix rs_map(const rs_matrix& in, std::size_t out_cols,
                 const record_fn& fn);

/// One parallel pass: zip two datasets record-wise.
rs_matrix rs_zip(const rs_matrix& a, const rs_matrix& b, std::size_t out_cols,
                 const std::function<void(const double*, const double*,
                                          double*)>& fn);

/// One parallel pass: fold all records into a state vector of length
/// state_len, initialized to init and merged with combine.
std::vector<double> rs_aggregate(const rs_matrix& in, std::size_t state_len,
                                 const std::vector<double>& init,
                                 const fold_fn& fold,
                                 const combine_fn& combine);

/// Convert host data in/out.
rs_matrix rs_from_smat(const smat& m);
smat rs_to_smat(const rs_matrix& m);

// ---- The benchmark algorithms implemented on the rowstream engine ----------
// Each mirrors the flashr::ml implementation but uses one pass per operator.

smat rs_correlation(const rs_matrix& X);
/// PCA eigenvalues of the covariance (descending).
std::vector<double> rs_pca_eigenvalues(const rs_matrix& X);
/// Gaussian NB: returns k x (2p + 1) packed [means | vars | prior].
smat rs_naive_bayes_train(const rs_matrix& X, const rs_matrix& y,
                          std::size_t num_classes);
/// Logistic regression via LBFGS; returns weights (with intercept last).
/// Stops after max_iters iterations or once the loss moves by less than
/// loss_tol (0 runs exactly max_iters, like ml::logistic_options).
smat rs_logistic(const rs_matrix& X, const rs_matrix& y, int max_iters,
                 double loss_tol);
/// Lloyd's k-means; returns final centers.
smat rs_kmeans(const rs_matrix& X, std::size_t k, int max_iters,
               const smat& init_centers);
/// Full-covariance GMM via EM; returns final mean log-likelihood.
double rs_gmm(const rs_matrix& X, std::size_t k, int max_iters,
              const smat& init_means);
/// LDA training: returns the pooled within-class covariance (the dominant
/// cost), computed with one pass per statistic as the per-op model dictates.
smat rs_lda_pooled_cov(const rs_matrix& X, const rs_matrix& y,
                       std::size_t num_classes);

}  // namespace flashr::baseline
