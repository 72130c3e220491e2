#include "core/dense_matrix.h"

#include <algorithm>
#include <unordered_map>

#include "common/error.h"
#include "core/exec.h"
#include "core/virtual_store.h"
#include "matrix/em_store.h"
#include "matrix/generated_store.h"
#include "matrix/mem_store.h"
#include "matrix/partition_io.h"
#include "obs/explain.h"
#include "obs/profile.h"

namespace flashr {

namespace {

matrix_store::ptr resolved_store(const matrix_store::ptr& s) {
  if (s && s->kind() == store_kind::virt) {
    auto* v = static_cast<virtual_store*>(s.get());
    if (auto r = v->result()) return r;
  }
  return s;
}

/// Prepare a matrix for use as a DAG input: pending sinks are materialized
/// first (they aggregate over a different partition space), transposed tall
/// handles are rejected (only matmul/crossprod consume those).
matrix_store::ptr ensure_input(const dense_matrix& m) {
  FLASHR_CHECK(m.valid(), "operation on an empty matrix");
  FLASHR_CHECK(!m.is_transposed(),
               "a transposed tall matrix can only be used in matmul/crossprod");
  matrix_store::ptr s = resolved_store(m.store());
  if (s->kind() == store_kind::virt &&
      static_cast<virtual_store*>(s.get())->is_sink_node()) {
    exec::materialize({s}, storage::in_mem);
    s = resolved_store(s);
  }
  return s;
}

/// Build a partition-aligned node; small results materialize eagerly, which
/// is how sink-result arithmetic behaves like plain R matrices.
dense_matrix make_aligned(genop op, std::vector<matrix_store::ptr> children,
                          std::size_t ncol, scalar_type type) {
  const auto& first = children.at(0);
  part_geom geom{first->nrow(), ncol, first->geom().part_rows};
  auto node = virtual_store::make(geom, type, std::move(op),
                                  std::move(children));
  dense_matrix out{node};
  if (out.is_small()) out.materialize(storage::in_mem);
  return out;
}

dense_matrix make_sink(genop op, std::vector<matrix_store::ptr> children,
                       std::size_t nrow, std::size_t ncol, scalar_type type) {
  part_geom geom{nrow, ncol, conf().io_part_rows};
  auto node = virtual_store::make(geom, type, std::move(op),
                                  std::move(children));
  return dense_matrix{node};
}

matrix_store::ptr cast_store(matrix_store::ptr s, scalar_type to) {
  if (s->type() == to) return s;
  genop op;
  op.kind = node_kind::cast_type;
  op.to_type = to;
  part_geom geom = s->geom();
  return virtual_store::make(geom, to, std::move(op), {std::move(s)});
}

/// Read any physical (or generated) store into host memory, column-major,
/// or row-major (the column-major layout of its transpose) when
/// `row_major`. Each element of the result is written once, appended in
/// order with no zero fill first. One walk over the partitions appends
/// every row of each in row-major order, or a range of columns of each in
/// column-major order; the latter takes one walk per column unless there
/// is one partition, which costs nothing for a mem store (read in place).
/// An EM or generated store with several columns and partitions is instead
/// read once per partition into a zero-filled result.
std::vector<double> store_to_vector(const matrix_store::ptr& sp,
                                    bool row_major) {
  const matrix_store::ptr s = resolved_store(sp);
  FLASHR_CHECK(s->kind() != store_kind::virt,
               "store_to_vector on unmaterialized matrix");
  const std::size_t n = s->nrow(), p = s->ncol(), parts = s->num_parts();
  FLASHR_CHECK(n * p <= (std::size_t{1} << 27),
               "to_smat: matrix too large to gather on the host");
  std::vector<double> out;
  if (!row_major && parts > 1 && p > 1 && s->kind() != store_kind::mem) {
    out.resize(n * p);
    for (std::size_t pidx = 0; pidx < parts; ++pidx) {
      const std::size_t r0 = s->geom().part_row_begin(pidx);
      with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
        dispatch_type(s->type(), [&]<typename T>() {
          const T* d = reinterpret_cast<const T*>(data);
          for (std::size_t j = 0; j < p; ++j)
            std::copy(d + j * rows, d + (j + 1) * rows, &out[j * n + r0]);
        });
      });
    }
    return out;
  }
  out.reserve(n * p);
  auto walk = [&](std::size_t j0, std::size_t j1) {
    for (std::size_t pidx = 0; pidx < parts; ++pidx) {
      with_partition(*s, pidx, [&](const char* data, std::size_t rows) {
        dispatch_type(s->type(), [&]<typename T>() {
          const T* d = reinterpret_cast<const T*>(data);
          if (row_major) {
            for (std::size_t i = 0; i < rows; ++i)
              for (std::size_t j = 0; j < p; ++j)
                out.push_back(static_cast<double>(d[j * rows + i]));
          } else {
            for (std::size_t j = j0; j < j1; ++j)
              out.insert(out.end(), d + j * rows, d + (j + 1) * rows);
          }
        });
      });
    }
  };
  if (row_major || parts == 1) {
    walk(0, p);
  } else {
    for (std::size_t j = 0; j < p; ++j) walk(j, j + 1);
  }
  return out;
}

}  // namespace

// ---- Creation ---------------------------------------------------------------

dense_matrix dense_matrix::runif(std::size_t nrow, std::size_t ncol, double lo,
                                 double hi, std::uint64_t seed,
                                 scalar_type type) {
  return dense_matrix{generated_store::create(nrow, ncol, type,
                                              gen_kind::uniform, lo, hi, seed)};
}

dense_matrix dense_matrix::rnorm(std::size_t nrow, std::size_t ncol, double mu,
                                 double sd, std::uint64_t seed,
                                 scalar_type type) {
  return dense_matrix{generated_store::create(nrow, ncol, type,
                                              gen_kind::normal, mu, sd, seed)};
}

dense_matrix dense_matrix::constant(std::size_t nrow, std::size_t ncol,
                                    double v, scalar_type type) {
  return dense_matrix{generated_store::create(nrow, ncol, type,
                                              gen_kind::constant, v, 0, 0)};
}

dense_matrix dense_matrix::bernoulli(std::size_t nrow, std::size_t ncol,
                                     double prob, std::uint64_t seed,
                                     scalar_type type) {
  return dense_matrix{generated_store::create(
      nrow, ncol, type, gen_kind::bernoulli, prob, 0, seed)};
}

dense_matrix dense_matrix::seq(std::size_t nrow, scalar_type type) {
  return dense_matrix{
      generated_store::create(nrow, 1, type, gen_kind::seq_row, 0, 0, 0)};
}

dense_matrix dense_matrix::from_smat(const smat& m, scalar_type type) {
  auto store = mem_store::create(m.nrow(), m.ncol(), type);
  for (std::size_t j = 0; j < m.ncol(); ++j)
    for (std::size_t i = 0; i < m.nrow(); ++i)
      store->set_d(i, j, m(i, j));
  return dense_matrix{store};
}

// ---- Introspection ------------------------------------------------------------

std::size_t dense_matrix::nrow() const {
  FLASHR_CHECK(valid(), "empty matrix");
  return transposed_ ? store_->ncol() : store_->nrow();
}

std::size_t dense_matrix::ncol() const {
  FLASHR_CHECK(valid(), "empty matrix");
  return transposed_ ? store_->nrow() : store_->ncol();
}

scalar_type dense_matrix::type() const {
  FLASHR_CHECK(valid(), "empty matrix");
  return store_->type();
}

bool dense_matrix::is_virtual() const {
  return valid() && resolved_store(store_)->kind() == store_kind::virt;
}

matrix_store::ptr dense_matrix::resolved() const {
  FLASHR_CHECK(valid(), "empty matrix");
  return resolved_store(store_);
}

// ---- Materialization ------------------------------------------------------------

void dense_matrix::materialize(storage st) const {
  FLASHR_CHECK(valid(), "empty matrix");
  exec::materialize({store_}, st);
}

void dense_matrix::materialize(storage st,
                               const exec::materialize_opts& opts) const {
  FLASHR_CHECK(valid(), "empty matrix");
  exec::materialize({store_}, st, opts);
}

void materialize_all(const std::vector<dense_matrix>& targets, storage st) {
  std::vector<matrix_store::ptr> stores;
  stores.reserve(targets.size());
  for (const auto& t : targets)
    if (t.valid()) stores.push_back(t.store());
  exec::materialize(stores, st);
}

smat dense_matrix::to_smat() const {
  return smat::from_data(nrow(), ncol(), to_vector());
}

std::vector<double> dense_matrix::to_vector() const {
  materialize(storage::in_mem);
  return store_to_vector(store_, transposed_);
}

double dense_matrix::scalar() const {
  FLASHR_CHECK_SHAPE(length() == 1, "scalar() requires a 1x1 matrix");
  return to_smat()(0, 0);
}

void dense_matrix::set_cache(bool v, storage st) const {
  FLASHR_CHECK(valid(), "empty matrix");
  if (store_->kind() == store_kind::virt)
    static_cast<virtual_store*>(store_.get())->set_cache_flag(v, st);
}

dense_matrix dense_matrix::t() const {
  FLASHR_CHECK(valid(), "empty matrix");
  if (is_small() && !transposed_) {
    // Small matrices transpose eagerly into a real store so the result is
    // freely usable; this is a handful of elements.
    return from_smat(to_smat().t(), type());
  }
  return dense_matrix{store_, !transposed_};
}

dense_matrix dense_matrix::cast(scalar_type to) const {
  FLASHR_CHECK(!transposed_, "cast of a transposed matrix");
  if (type() == to) return *this;
  auto s = ensure_input(*this);
  genop op;
  op.kind = node_kind::cast_type;
  op.to_type = to;
  return make_aligned(std::move(op), {std::move(s)}, ncol(), to);
}

double dense_matrix::at(std::size_t i, std::size_t j) const {
  FLASHR_CHECK(i < nrow() && j < ncol(), "at(): out of range");
  if (transposed_) std::swap(i, j);
  materialize(storage::in_mem);
  const matrix_store::ptr s = resolved_store(store_);
  // Only the partition that holds row i is read (or generated).
  const std::size_t pidx = i / s->geom().part_rows;
  const std::size_t r = i - s->geom().part_row_begin(pidx);
  double v = 0.0;
  with_partition(*s, pidx, [&](const char* data, std::size_t stride) {
    dispatch_type(s->type(), [&]<typename T>() {
      v = static_cast<double>(reinterpret_cast<const T*>(data)[j * stride + r]);
    });
  });
  return v;
}

std::string dense_matrix::explain() const {
  return obs::explain_json({store_});
}

std::string dense_matrix::explain_dot() const {
  return obs::explain_dot({store_});
}

std::string dense_matrix::explain_analyze(storage st) const {
  return obs::explain_analyze_json({store_}, st);
}

std::string dense_matrix::explain_analyze_dot(storage st) const {
  return obs::explain_analyze_dot({store_}, st);
}

// ---- GenOps -------------------------------------------------------------------

dense_matrix sapply(const dense_matrix& a, uop_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::sapply;
  g.u = op;
  return make_aligned(std::move(g), {s}, s->ncol(), s->type());
}

dense_matrix mapply2(const dense_matrix& a, const dense_matrix& b, bop_id op) {
  auto sa = ensure_input(a);
  auto sb = ensure_input(b);
  FLASHR_CHECK_SHAPE(
      sa->nrow() == sb->nrow() &&
          (sa->ncol() == sb->ncol() || sb->ncol() == 1),
      "mapply: shapes " + shape_str(sa->nrow(), sa->ncol()) + " vs " +
          shape_str(sb->nrow(), sb->ncol()));
  const scalar_type t = promote(sa->type(), sb->type());
  sa = cast_store(std::move(sa), t);
  sb = cast_store(std::move(sb), t);
  const std::size_t ncol = sa->ncol();
  genop g;
  g.kind = node_kind::map2;
  g.b = op;
  return make_aligned(std::move(g), {sa, sb}, ncol, t);
}

dense_matrix mapply2(const dense_matrix& a, double c, bop_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::map_scalar;
  g.b = op;
  g.scalar = scalar_val(c);
  return make_aligned(std::move(g), {s}, s->ncol(), s->type());
}

dense_matrix mapply2(double c, const dense_matrix& a, bop_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::map_scalar;
  g.b = op;
  g.scalar = scalar_val(c);
  g.scalar_left = true;
  return make_aligned(std::move(g), {s}, s->ncol(), s->type());
}

dense_matrix agg(const dense_matrix& a, agg_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::s_agg_full;
  g.a = op;
  const scalar_type t = s->type();
  return make_sink(std::move(g), {s}, 1, 1, t);
}

dense_matrix agg_row(const dense_matrix& a, agg_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::agg_row;
  g.a = op;
  const scalar_type t = s->type();
  return make_aligned(std::move(g), {s}, 1, t);
}

dense_matrix agg_col(const dense_matrix& a, agg_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::s_agg_col;
  g.a = op;
  const scalar_type t = s->type();
  const std::size_t p = s->ncol();
  return make_sink(std::move(g), {s}, 1, p, t);
}

namespace {
dense_matrix which_row(const dense_matrix& a, agg_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::agg_row;
  g.a = op;
  g.return_index = true;
  return make_aligned(std::move(g), {s}, 1, scalar_type::i64);
}
}  // namespace

dense_matrix which_min_row(const dense_matrix& a) {
  return which_row(a, agg_id::min_v);
}

dense_matrix which_max_row(const dense_matrix& a) {
  return which_row(a, agg_id::max_v);
}

dense_matrix inner_prod(const dense_matrix& a, const smat& b, bop_id f1,
                        agg_id f2) {
  auto s = ensure_input(a);
  FLASHR_CHECK_SHAPE(s->ncol() == b.nrow(),
                     "inner.prod: inner dimensions disagree");
  genop g;
  g.kind = node_kind::inner_prod;
  g.b = f1;
  g.a = f2;
  g.small = b;
  const scalar_type t = s->type();
  return make_aligned(std::move(g), {s}, b.ncol(), t);
}

dense_matrix groupby_row(const dense_matrix& a, const dense_matrix& labels,
                         std::size_t num_groups, agg_id op) {
  auto sa = ensure_input(a);
  auto sl = cast_store(ensure_input(labels), scalar_type::i64);
  FLASHR_CHECK_SHAPE(sl->ncol() == 1 && sl->nrow() == sa->nrow(),
                     "groupby.row: labels must be an n-by-1 vector");
  genop g;
  g.kind = node_kind::s_groupby_row;
  g.a = op;
  g.num_groups = num_groups;
  const scalar_type t = sa->type();
  const std::size_t p = sa->ncol();
  return make_sink(std::move(g), {sa, sl}, num_groups, p, t);
}

dense_matrix count_groups(const dense_matrix& labels, std::size_t num_groups) {
  auto sl = cast_store(ensure_input(labels), scalar_type::i64);
  FLASHR_CHECK_SHAPE(sl->ncol() == 1, "table: labels must be a vector");
  genop g;
  g.kind = node_kind::s_count_groups;
  g.num_groups = num_groups;
  return make_sink(std::move(g), {sl}, num_groups, 1, scalar_type::i64);
}

dense_matrix groupby_col(const dense_matrix& a,
                         const std::vector<std::size_t>& col_labels,
                         std::size_t num_groups, agg_id op) {
  auto s = ensure_input(a);
  FLASHR_CHECK_SHAPE(col_labels.size() == s->ncol(),
                     "groupby.col: one label per column required");
  genop g;
  g.kind = node_kind::groupby_col;
  g.a = op;
  g.num_groups = num_groups;
  g.cols = col_labels;
  const scalar_type t = s->type();
  return make_aligned(std::move(g), {s}, num_groups, t);
}

dense_matrix cum_col(const dense_matrix& a, bop_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::cum_col;
  g.b = op;
  return make_aligned(std::move(g), {s}, s->ncol(), s->type());
}

dense_matrix cum_row(const dense_matrix& a, bop_id op) {
  auto s = ensure_input(a);
  genop g;
  g.kind = node_kind::cum_row;
  g.b = op;
  return make_aligned(std::move(g), {s}, s->ncol(), s->type());
}

// ---- R base surface ------------------------------------------------------------

dense_matrix operator+(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::add);
}
dense_matrix operator-(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::sub);
}
dense_matrix operator*(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::mul);
}
dense_matrix operator/(const dense_matrix& a, const dense_matrix& b) {
  // R promotes integer division to double.
  const dense_matrix an =
      is_floating(a.type()) ? a : a.cast(scalar_type::f64);
  const dense_matrix bn =
      is_floating(b.type()) ? b : b.cast(scalar_type::f64);
  return mapply2(an, bn, bop_id::div);
}
dense_matrix operator+(const dense_matrix& a, double c) {
  return mapply2(a, c, bop_id::add);
}
dense_matrix operator-(const dense_matrix& a, double c) {
  return mapply2(a, c, bop_id::sub);
}
dense_matrix operator*(const dense_matrix& a, double c) {
  return mapply2(a, c, bop_id::mul);
}
dense_matrix operator/(const dense_matrix& a, double c) {
  const dense_matrix an =
      is_floating(a.type()) ? a : a.cast(scalar_type::f64);
  return mapply2(an, c, bop_id::div);
}
dense_matrix operator+(double c, const dense_matrix& a) {
  return mapply2(c, a, bop_id::add);
}
dense_matrix operator-(double c, const dense_matrix& a) {
  return mapply2(c, a, bop_id::sub);
}
dense_matrix operator*(double c, const dense_matrix& a) {
  return mapply2(c, a, bop_id::mul);
}
dense_matrix operator/(double c, const dense_matrix& a) {
  const dense_matrix an =
      is_floating(a.type()) ? a : a.cast(scalar_type::f64);
  return mapply2(c, an, bop_id::div);
}
dense_matrix operator-(const dense_matrix& a) {
  return sapply(a, uop_id::neg);
}

dense_matrix eq(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::eq);
}
dense_matrix ne(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::ne);
}
dense_matrix lt(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::lt);
}
dense_matrix gt(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::gt);
}

dense_matrix pmin(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::min_v);
}
dense_matrix pmax(const dense_matrix& a, const dense_matrix& b) {
  return mapply2(a, b, bop_id::max_v);
}
dense_matrix pmin(const dense_matrix& a, double c) {
  return mapply2(a, c, bop_id::min_v);
}
dense_matrix pmax(const dense_matrix& a, double c) {
  return mapply2(a, c, bop_id::max_v);
}

dense_matrix sqrt(const dense_matrix& a) { return sapply(a, uop_id::sqrt_v); }
dense_matrix exp(const dense_matrix& a) { return sapply(a, uop_id::exp_v); }
dense_matrix log(const dense_matrix& a) { return sapply(a, uop_id::log_v); }
dense_matrix log1p(const dense_matrix& a) { return sapply(a, uop_id::log1p_v); }
dense_matrix abs(const dense_matrix& a) { return sapply(a, uop_id::abs_v); }
dense_matrix square(const dense_matrix& a) { return sapply(a, uop_id::square); }
dense_matrix sigmoid(const dense_matrix& a) { return sapply(a, uop_id::sigmoid); }

dense_matrix sum(const dense_matrix& a) { return agg(a, agg_id::sum); }
dense_matrix min(const dense_matrix& a) { return agg(a, agg_id::min_v); }
dense_matrix max(const dense_matrix& a) { return agg(a, agg_id::max_v); }
dense_matrix any(const dense_matrix& a) { return agg(a, agg_id::any_v); }
dense_matrix all(const dense_matrix& a) { return agg(a, agg_id::all_v); }
dense_matrix row_sums(const dense_matrix& a) {
  return agg_row(a, agg_id::sum);
}
dense_matrix col_sums(const dense_matrix& a) {
  return agg_col(a, agg_id::sum);
}
dense_matrix row_means(const dense_matrix& a) {
  return row_sums(a) / static_cast<double>(a.ncol());
}
dense_matrix col_means(const dense_matrix& a) {
  return col_sums(a) / static_cast<double>(a.nrow());
}

dense_matrix sweep_cols(const dense_matrix& a, const smat& v, bop_id op) {
  auto s = ensure_input(a);
  FLASHR_CHECK_SHAPE(v.size() == s->ncol(),
                     "sweep: vector length must equal ncol");
  genop g;
  g.kind = node_kind::sweep_rowvec;
  g.b = op;
  g.small = v;
  return make_aligned(std::move(g), {s}, s->ncol(), s->type());
}

dense_matrix sweep_cols(const dense_matrix& a, const dense_matrix& v,
                        bop_id op) {
  return sweep_cols(a, v.to_smat(), op);
}

dense_matrix matmul(const dense_matrix& a, const dense_matrix& b) {
  // t(tall) %*% tall: the one-pass crossprod-style sink.
  if (a.is_transposed() && !b.is_transposed()) {
    auto sa = ensure_input(dense_matrix{a.store()});
    auto sb = ensure_input(b);
    FLASHR_CHECK_SHAPE(sa->nrow() == sb->nrow(),
                       "%*%: non-conformable arguments");
    const scalar_type t = promote(sa->type(), sb->type());
    sa = cast_store(std::move(sa), t);
    sb = cast_store(std::move(sb), t);
    genop g;
    g.kind = node_kind::s_tmm;
    g.b = bop_id::mul;
    g.a = agg_id::sum;
    const std::size_t m = sa->ncol(), k = sb->ncol();
    return make_sink(std::move(g), {sa, sb}, m, k, t);
  }
  FLASHR_CHECK(!a.is_transposed() && !b.is_transposed(),
               "%*%: unsupported transposition pattern");
  FLASHR_CHECK_SHAPE(a.ncol() == b.nrow(), "%*%: non-conformable arguments");
  FLASHR_CHECK(b.is_small(), "%*%: right operand must fit in memory");
  return matmul(a, b.to_smat());
}

dense_matrix matmul(const dense_matrix& a, const smat& b) {
  if (a.is_transposed()) return matmul(a, dense_matrix::from_smat(b));
  FLASHR_CHECK_SHAPE(a.ncol() == b.nrow(), "%*%: non-conformable arguments");
  // small %*% small on the host.
  if (a.is_small()) return dense_matrix::from_smat(a.to_smat().mm(b));
  // tall %*% small via inner.prod (floating point goes through the BLAS
  // fast path inside the kernel — Table 2's "%*%" row).
  return inner_prod(a, b, bop_id::mul, agg_id::sum);
}

dense_matrix crossprod(const dense_matrix& a) { return crossprod(a, a); }

dense_matrix crossprod(const dense_matrix& a, const dense_matrix& b) {
  return matmul(a.is_transposed() ? a : dense_matrix{a.store(), true},
                b);
}

dense_matrix select_cols(const dense_matrix& a,
                         const std::vector<std::size_t>& cols) {
  auto s = ensure_input(a);
  for (std::size_t c : cols)
    FLASHR_CHECK_SHAPE(c < s->ncol(), "[, cols]: column index out of range");
  // Column subset of an SSD-resident matrix: return a column-view LEAF so
  // downstream DAGs read only the selected columns from the SSDs (§3.2.1 —
  // the hash striping exists precisely so partial-column access still uses
  // the whole array). A view of a view composes the index lists.
  if (s->kind() == store_kind::ext) {
    if (auto* view = dynamic_cast<const em_col_view*>(s.get())) {
      std::vector<std::size_t> composed(cols.size());
      for (std::size_t i = 0; i < cols.size(); ++i)
        composed[i] = view->cols()[cols[i]];
      // Rebuild on the same base by chaining through the view's reader: the
      // base is private, so route through a fresh view of the base via the
      // composed indices held by this view's base pointer.
      return dense_matrix{em_col_view::create(view->base(), composed)};
    }
    return dense_matrix{em_col_view::create(
        std::static_pointer_cast<const em_store>(s), cols)};
  }
  genop g;
  g.kind = node_kind::select_cols;
  g.cols = cols;
  const scalar_type t = s->type();
  return make_aligned(std::move(g), {s}, cols.size(), t);
}

dense_matrix cbind(const std::vector<dense_matrix>& mats) {
  FLASHR_CHECK(!mats.empty(), "cbind of nothing");
  std::vector<matrix_store::ptr> children;
  scalar_type t = mats[0].type();
  for (const auto& m : mats) t = promote(t, m.type());
  std::size_t ncol = 0;
  for (const auto& m : mats) {
    auto s = cast_store(ensure_input(m), t);
    FLASHR_CHECK_SHAPE(s->nrow() == mats[0].nrow(),
                       "cbind: row counts disagree");
    ncol += s->ncol();
    children.push_back(std::move(s));
  }
  genop g;
  g.kind = node_kind::cbind2;
  return make_aligned(std::move(g), std::move(children), ncol, t);
}

dense_matrix cumsum_col(const dense_matrix& a) {
  return cum_col(a, bop_id::add);
}
dense_matrix cumprod_col(const dense_matrix& a) {
  return cum_col(a, bop_id::mul);
}
dense_matrix cummin_col(const dense_matrix& a) {
  return cum_col(a, bop_id::min_v);
}
dense_matrix cummax_col(const dense_matrix& a) {
  return cum_col(a, bop_id::max_v);
}

smat gather_rows(const dense_matrix& a, const std::vector<std::size_t>& rows) {
  FLASHR_CHECK(!a.is_transposed(), "gather_rows on a transposed matrix");
  for (std::size_t r : rows)
    FLASHR_CHECK_SHAPE(r < a.nrow(), "gather_rows: row index out of range");
  a.materialize(storage::in_mem);
  matrix_store::ptr s = resolved_store(a.store());
  smat out(rows.size(), s->ncol());
  // Gather partition by partition: each partition holding a wanted row is
  // read (or generated) once.
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_part;
  for (std::size_t i = 0; i < rows.size(); ++i)
    by_part[rows[i] / s->geom().part_rows].push_back(i);
  for (const auto& [pidx, idxs] : by_part) {
    const std::size_t r0 = s->geom().part_row_begin(pidx);
    with_partition(*s, pidx, [&](const char* data, std::size_t prows) {
      dispatch_type(s->type(), [&]<typename T>() {
        const T* d = reinterpret_cast<const T*>(data);
        for (std::size_t i : idxs)
          for (std::size_t j = 0; j < s->ncol(); ++j)
            out(i, j) = static_cast<double>(d[j * prows + rows[i] - r0]);
      });
    });
  }
  return out;
}

dense_matrix conv_store(const dense_matrix& a, storage st) {
  auto s = ensure_input(a);
  // Identity node (cast to the same type) materialized to the target
  // storage; returns a handle on the new physical store.
  genop g;
  g.kind = node_kind::cast_type;
  g.to_type = s->type();
  part_geom geom = s->geom();
  auto node = virtual_store::make(geom, s->type(), std::move(g), {s});
  exec::materialize({node}, st);
  return dense_matrix{node->result()};
}

}  // namespace flashr
