// dense_matrix: the public handle type and R-like operator surface.
//
// A dense_matrix is a cheap, copyable handle on a matrix_store. Operations
// mirror the R base functions FlashR overrides (Table 2/3): arithmetic
// operators, pmin/pmax, sqrt/exp/log, sum/rowSums/colSums, sweep, %*%
// (matmul), crossprod, t, [ ]-style column selection, plus the raw GenOps of
// Table 1 (inner.prod, agg.row, groupby.row, cum.*). All operations on tall
// matrices are lazy: they build virtual stores and return immediately;
// materialize()/as-scalar conversions trigger DAG execution (§3.4).
//
// Ops whose every input is small (nrow <= conf().small_nrow_threshold) are
// evaluated eagerly through the same kernels — these play the role of plain
// R matrices holding sink results between DAG executions.
#pragma once

#include <string>
#include <vector>

#include "blas/smat.h"
#include "common/config.h"
#include "core/exec.h"
#include "core/genops.h"
#include "matrix/matrix_store.h"

namespace flashr {

class dense_matrix {
 public:
  dense_matrix() = default;
  explicit dense_matrix(matrix_store::ptr store, bool transposed = false)
      : store_(std::move(store)), transposed_(transposed) {}

  // ---- Creation (Table 3) -------------------------------------------------

  /// runif.matrix: uniform random in [lo, hi).
  static dense_matrix runif(std::size_t nrow, std::size_t ncol,
                            double lo = 0.0, double hi = 1.0,
                            std::uint64_t seed = 1,
                            scalar_type type = scalar_type::f64);
  /// rnorm.matrix: Normal(mu, sd).
  static dense_matrix rnorm(std::size_t nrow, std::size_t ncol,
                            double mu = 0.0, double sd = 1.0,
                            std::uint64_t seed = 1,
                            scalar_type type = scalar_type::f64);
  static dense_matrix constant(std::size_t nrow, std::size_t ncol, double v,
                               scalar_type type = scalar_type::f64);
  static dense_matrix bernoulli(std::size_t nrow, std::size_t ncol,
                                double prob, std::uint64_t seed = 1,
                                scalar_type type = scalar_type::f64);
  /// Column vector 0, 1, ..., n-1.
  static dense_matrix seq(std::size_t nrow,
                          scalar_type type = scalar_type::f64);
  /// Copy a small host matrix into an in-memory dense matrix.
  static dense_matrix from_smat(const smat& m,
                                scalar_type type = scalar_type::f64);

  // ---- Introspection ------------------------------------------------------

  bool valid() const { return store_ != nullptr; }
  std::size_t nrow() const;
  std::size_t ncol() const;
  std::size_t length() const { return nrow() * ncol(); }
  scalar_type type() const;
  bool is_virtual() const;
  bool is_transposed() const { return transposed_; }
  bool is_small() const { return nrow() <= conf().small_nrow_threshold; }
  const matrix_store::ptr& store() const { return store_; }
  /// The physical store behind this handle (follows a virtual node's
  /// materialized result). Returns the virtual store itself if pending.
  matrix_store::ptr resolved() const;

  // ---- Conversion & materialization (Table 3) -----------------------------

  /// Force computation; after this the handle is backed by a physical store.
  void materialize(storage st = storage::in_mem) const;
  /// Same, with per-call execution limits (deadline); see exec::materialize.
  void materialize(storage st, const exec::materialize_opts& opts) const;
  /// Copy to a host smat (materializes; intended for small matrices).
  smat to_smat() const;
  /// as.vector: flatten (column-major) to a host vector.
  std::vector<double> to_vector() const;
  /// Value of a 1×1 matrix (e.g. a sum). Triggers materialization.
  double scalar() const;
  /// set.cache: keep this virtual matrix's data when a DAG containing it is
  /// next materialized (Table 3 / §3.5). `st` chooses whether the cached
  /// copy lives in memory or on SSDs.
  void set_cache(bool v = true, storage st = storage::in_mem) const;

  /// Zero-copy transpose: flips the handle's orientation (§3.2.1 — "FlashR
  /// supports both row-major and column-major layouts, which allows FlashR
  /// to transpose matrices without a copy"). A transposed tall matrix is
  /// consumed by matmul/crossprod; small matrices may be transposed freely.
  dense_matrix t() const;

  dense_matrix cast(scalar_type to) const;

  /// Element read for tests/debugging (materializes). Indices are logical
  /// (respect transposition).
  double at(std::size_t i, std::size_t j) const;

  /// Dump the pending lazy DAG beneath this handle — node kinds, shapes,
  /// element types and the execution plan under the current conf().mode —
  /// without materializing anything (obs/explain.h). JSON and Graphviz dot.
  std::string explain() const;
  std::string explain_dot() const;

  /// EXPLAIN ANALYZE: materialize this handle's pending DAG with per-node
  /// profiling on and return the estimated plan next to the measured
  /// actuals (kernel/I/O-wait time, partitions, rows, bytes, Pcache chunks
  /// per node, keyed by the same DFS ids explain() prints). The dot variant
  /// returns the plan graph annotated with the measured totals.
  std::string explain_analyze(storage st = storage::in_mem) const;
  std::string explain_analyze_dot(storage st = storage::in_mem) const;

 private:
  matrix_store::ptr store_;
  bool transposed_ = false;
};

// ---- GenOps (Table 1) -------------------------------------------------------

dense_matrix sapply(const dense_matrix& a, uop_id op);
dense_matrix mapply2(const dense_matrix& a, const dense_matrix& b, bop_id op);
dense_matrix mapply2(const dense_matrix& a, double c, bop_id op);
dense_matrix mapply2(double c, const dense_matrix& a, bop_id op);
/// agg over the whole matrix -> 1×1 sink.
dense_matrix agg(const dense_matrix& a, agg_id op);
/// agg.row -> n×1; agg.col -> 1×ncol sink.
dense_matrix agg_row(const dense_matrix& a, agg_id op);
dense_matrix agg_col(const dense_matrix& a, agg_id op);
/// which.min/which.max over each row -> n×1 int64 of 0-based column indices.
dense_matrix which_min_row(const dense_matrix& a);
dense_matrix which_max_row(const dense_matrix& a);
/// Generalized inner product with a small right-hand side (k-means uses
/// f1 = sqdiff, f2 = sum for squared Euclidean distances).
dense_matrix inner_prod(const dense_matrix& a, const smat& b, bop_id f1,
                        agg_id f2);
/// groupby.row(A, labels, op): labels is an integer n×1 matrix with values
/// in [0, num_groups); returns num_groups×ncol.
dense_matrix groupby_row(const dense_matrix& a, const dense_matrix& labels,
                         std::size_t num_groups, agg_id op);
/// table(labels): histogram -> num_groups×1 (int64).
dense_matrix count_groups(const dense_matrix& labels, std::size_t num_groups);
/// groupby.col(A, col_labels, op): columns j with col_labels[j] == k are
/// op-aggregated into output column k (Table 1; partition-aligned, n×k).
dense_matrix groupby_col(const dense_matrix& a,
                         const std::vector<std::size_t>& col_labels,
                         std::size_t num_groups, agg_id op);
/// Cumulative ops; col variants run down the partition dimension.
dense_matrix cum_col(const dense_matrix& a, bop_id op);
dense_matrix cum_row(const dense_matrix& a, bop_id op);

// ---- R base surface (Table 2) -----------------------------------------------

dense_matrix operator+(const dense_matrix& a, const dense_matrix& b);
dense_matrix operator-(const dense_matrix& a, const dense_matrix& b);
dense_matrix operator*(const dense_matrix& a, const dense_matrix& b);
dense_matrix operator/(const dense_matrix& a, const dense_matrix& b);
dense_matrix operator+(const dense_matrix& a, double c);
dense_matrix operator-(const dense_matrix& a, double c);
dense_matrix operator*(const dense_matrix& a, double c);
dense_matrix operator/(const dense_matrix& a, double c);
dense_matrix operator+(double c, const dense_matrix& a);
dense_matrix operator-(double c, const dense_matrix& a);
dense_matrix operator*(double c, const dense_matrix& a);
dense_matrix operator/(double c, const dense_matrix& a);
dense_matrix operator-(const dense_matrix& a);

dense_matrix eq(const dense_matrix& a, const dense_matrix& b);
dense_matrix ne(const dense_matrix& a, const dense_matrix& b);
dense_matrix lt(const dense_matrix& a, const dense_matrix& b);
dense_matrix gt(const dense_matrix& a, const dense_matrix& b);

dense_matrix pmin(const dense_matrix& a, const dense_matrix& b);
dense_matrix pmax(const dense_matrix& a, const dense_matrix& b);
dense_matrix pmin(const dense_matrix& a, double c);
dense_matrix pmax(const dense_matrix& a, double c);

dense_matrix sqrt(const dense_matrix& a);
dense_matrix exp(const dense_matrix& a);
dense_matrix log(const dense_matrix& a);
dense_matrix log1p(const dense_matrix& a);
dense_matrix abs(const dense_matrix& a);
dense_matrix square(const dense_matrix& a);
dense_matrix sigmoid(const dense_matrix& a);

dense_matrix sum(const dense_matrix& a);       ///< 1×1 sink
dense_matrix min(const dense_matrix& a);
dense_matrix max(const dense_matrix& a);
dense_matrix any(const dense_matrix& a);
dense_matrix all(const dense_matrix& a);
dense_matrix row_sums(const dense_matrix& a);  ///< n×1
dense_matrix col_sums(const dense_matrix& a);  ///< 1×p sink
dense_matrix row_means(const dense_matrix& a);
dense_matrix col_means(const dense_matrix& a);

/// sweep(A, 2, v, op): apply v (length ncol) across rows. v may be given as
/// an smat row/col vector or a 1×p / p×1 dense matrix (materialized).
dense_matrix sweep_cols(const dense_matrix& a, const smat& v, bop_id op);
dense_matrix sweep_cols(const dense_matrix& a, const dense_matrix& v,
                        bop_id op);

/// Matrix product (R `%*%`). Supported shapes mirror the engine (§3.2):
///  * tall(n×p) %*% small(p×k)      -> tall n×k (inner.prod fast path)
///  * t(tall n×p) %*% tall(n×k)     -> small p×k sink (one-pass accumulate)
///  * small %*% small               -> small (host gemm)
dense_matrix matmul(const dense_matrix& a, const dense_matrix& b);
/// a %*% b for a host matrix b (model weights, rotations, ...), of any row
/// count: a small `a` multiplies on the host, a tall one through
/// inner.prod. The same bits as matmul(a, from_smat(b)) without the copy.
dense_matrix matmul(const dense_matrix& a, const smat& b);
/// crossprod(A) = t(A) %*% A; crossprod(A, B) = t(A) %*% B.
dense_matrix crossprod(const dense_matrix& a);
dense_matrix crossprod(const dense_matrix& a, const dense_matrix& b);

/// Column selection A[, cols] (zero-based).
dense_matrix select_cols(const dense_matrix& a,
                         const std::vector<std::size_t>& cols);
/// cbind: column concatenation of partition-aligned matrices.
dense_matrix cbind(const std::vector<dense_matrix>& mats);

dense_matrix cumsum_col(const dense_matrix& a);
dense_matrix cumprod_col(const dense_matrix& a);
dense_matrix cummin_col(const dense_matrix& a);
dense_matrix cummax_col(const dense_matrix& a);

/// Materialize several virtual matrices in ONE pass over the data (§3.5's
/// whole-DAG materialization: k-means computes assignments, counts, sums and
/// the convergence test in a single scan).
void materialize_all(const std::vector<dense_matrix>& targets,
                     storage st = storage::in_mem);

/// Gather specific (global) rows into a host smat — used to seed k-means
/// centers. Materializes the source if virtual.
smat gather_rows(const dense_matrix& a, const std::vector<std::size_t>& rows);

/// Copy/convert a matrix to the given storage (conv.store in FlashR): e.g.
/// push a generated dataset out to SSDs before a benchmark.
dense_matrix conv_store(const dense_matrix& a, storage st);

}  // namespace flashr
