// Sink kernel tests: kern::tmm_acc and kern::agg_col_acc fold every output
// element strictly in row order (DESIGN.md §11.2), so they must give exactly
// the bits of a plain serial fold — compared with memcmp, not a tolerance —
// for every scalar type, output width, right-hand width and row count, on
// every instruction-set level the CPU supports, and the same bits however
// a chunk's rows are split across calls. Also pins agg_row's
// which.min/which.max semantics (first index wins ties, NaN never wins) in
// the kernel and through the engine.
//
// KernelVariantTest runs every chunk kernel on each wider level and compares
// its output bytes with the baseline level's by memcmp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/dense_matrix.h"
#include "core/kernels.h"
#include "core/vmath.h"

namespace flashr {
namespace {

constexpr std::size_t kWidths[] = {1, 3, 7, 8, 9, 15, 16, 17, 39, 40, 64};
constexpr std::size_t kRhsWidths[] = {1, 2, 3, 4, 5, 8, 9, 16, 17};
constexpr std::size_t kRowCounts[] = {1, 7, 16, 128, 1000};
/// Rows per call when a chunk's rows are folded in several calls; 0 folds
/// them in one.
constexpr std::size_t kCallRows[] = {0, 1, 3, 16, 100};
constexpr agg_id kAllAggs[] = {agg_id::sum,   agg_id::prod,
                               agg_id::min_v, agg_id::max_v,
                               agg_id::count_nonzero, agg_id::any_v,
                               agg_id::all_v};

/// Columns carry a few elements of padding, so every view is strided.
constexpr std::size_t kPad = 5;

/// What a test column holds: general values (with some zeros), factors that
/// keep a product bounded, or general values with NaN and ±inf entries.
enum class fill { general, factors, specials };

template <typename T>
T draw(rng64& g, fill f) {
  const std::uint64_t u = g.next_u64();
  if constexpr (std::is_floating_point_v<T>) {
    if (f == fill::factors)
      return static_cast<T>(0.5 + g.next_uniform());
    if (f == fill::specials) {
      switch (u % 16) {
        case 0: return std::numeric_limits<T>::quiet_NaN();
        case 1: return std::numeric_limits<T>::infinity();
        case 2: return -std::numeric_limits<T>::infinity();
        default: break;
      }
    }
    if (u % 8 == 3) return T{0};
    return static_cast<T>(g.next_normal());
  } else {
    // Small integers, so neither a product of two nor a 1000-row sum of
    // them overflows i32, and a product fold of ±1 factors stays ±1.
    if (f == fill::factors) return u % 16 == 0 ? T{0} : (u % 2 ? T{1} : T{-1});
    return static_cast<T>(static_cast<std::int64_t>(u % 101) - 50);
  }
}

/// A rows x cols column-major block with stride rows + kPad.
template <typename T>
struct block {
  std::size_t rows = 0, cols = 0;
  std::vector<T> data;

  block(std::size_t r, std::size_t c, std::uint64_t seed, fill f)
      : rows(r), cols(c), data((r + kPad) * c) {
    rng64 g(seed);
    for (T& x : data) x = draw<T>(g, f);
  }
  std::size_t stride() const { return rows + kPad; }
  const T& at(std::size_t r, std::size_t j) const {
    return data[j * stride() + r];
  }
  /// Rows [r0, r0 + n) of every column, as a kernel view.
  kern::view rows_from(std::size_t r0) const {
    return {reinterpret_cast<const char*>(data.data() + r0), stride()};
  }
};

template <typename T>
T ref_step(agg_id op, T acc, T x) {
  switch (op) {
    case agg_id::sum: return static_cast<T>(acc + x);
    case agg_id::prod: return static_cast<T>(acc * x);
    case agg_id::min_v: return std::min(acc, x);
    case agg_id::max_v: return std::max(acc, x);
    case agg_id::count_nonzero:
      return static_cast<T>(acc + (x != T{0} ? 1 : 0));
    case agg_id::any_v: return (acc != T{0} || x != T{0}) ? T{1} : T{0};
    case agg_id::all_v: return (acc != T{0} && x != T{0}) ? T{1} : T{0};
  }
  return acc;
}

/// A starting accumulator per output that is not the op's identity.
template <typename T>
std::vector<T> start_acc(agg_id op, std::size_t n) {
  std::vector<T> acc(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (op) {
      case agg_id::sum: acc[j] = static_cast<T>(3 * (j % 5)) - T{4}; break;
      case agg_id::prod: acc[j] = j % 2 ? T{-1} : T{3}; break;
      case agg_id::min_v: acc[j] = static_cast<T>(j % 3); break;
      case agg_id::max_v: acc[j] = -static_cast<T>(j % 3); break;
      case agg_id::count_nonzero: acc[j] = static_cast<T>(j); break;
      case agg_id::any_v:
      case agg_id::all_v: acc[j] = static_cast<T>(j % 2); break;
    }
  }
  return acc;
}

/// The serial fold the kernel must reproduce: each column on its own,
/// rows in order, one accumulator at a time.
template <typename T>
std::vector<T> ref_agg_col(agg_id op, const block<T>& a, std::vector<T> acc) {
  for (std::size_t j = 0; j < a.cols; ++j)
    for (std::size_t r = 0; r < a.rows; ++r)
      acc[j] = ref_step(op, acc[j], a.at(r, j));
  return acc;
}

/// C (m x k, stride m) += t(A) %*% B, one element at a time, rows in order,
/// the product rounded before the add.
template <typename T>
std::vector<T> ref_tmm(const block<T>& a, const block<T>& b, std::size_t k,
                       std::vector<T> c) {
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < a.cols; ++i) {
      T v = c[j * a.cols + i];
      for (std::size_t r = 0; r < a.rows; ++r) {
        const T p = static_cast<T>(a.at(r, i) * b.at(r, j));
        v = static_cast<T>(v + p);
      }
      c[j * a.cols + i] = v;
    }
  return c;
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// same_bits, except that a NaN matches any NaN: which NaN operand an add
/// passes on is the compiler's choice of operand order, not the fold's.
template <typename T>
bool same_bits_or_nan(const std::vector<T>& x, const std::vector<T>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if constexpr (std::is_floating_point_v<T>)
      if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(&x[i], &y[i], sizeof(T)) != 0) return false;
  }
  return true;
}

/// The kernel levels the CPU supports, each named in the log when it is not.
std::vector<vmath::isa> levels() {
  std::vector<vmath::isa> out;
  for (const vmath::isa v : {vmath::isa::baseline, vmath::isa::x86_64_v3,
                             vmath::isa::x86_64_v4}) {
    if (vmath::isa_supported(v))
      out.push_back(v);
    else
      std::printf("[ SKIPPED  ] kernel level %s: not supported on this "
                  "CPU\n",
                  vmath::isa_name(v));
  }
  return out;
}

/// Runs call(r0, n) over [0, rows) in calls of at most `split` rows (0: one
/// call).
template <typename Call>
void fold_in_calls(std::size_t rows, std::size_t split, Call call) {
  if (split == 0) split = rows;
  for (std::size_t r0 = 0; r0 < rows; r0 += split)
    call(r0, std::min(split, rows - r0));
}

template <typename T>
class SinkKernelTest : public ::testing::Test {};

using ScalarTypes = ::testing::Types<double, float, std::int64_t, std::int32_t>;
TYPED_TEST_SUITE(SinkKernelTest, ScalarTypes);

// Every variant, on general values and on values with NaN and ±inf.
TYPED_TEST(SinkKernelTest, TmmMulSumMatchesSerialFoldBitForBit) {
  using T = TypeParam;
  const scalar_type t = type_of<T>();
  const std::vector<vmath::isa> variants = levels();
  for (const fill f : {fill::general, fill::specials}) {
    // Integer draws ignore the fill.
    if (!std::is_floating_point_v<T> && f == fill::specials) continue;
    for (const std::size_t rows : kRowCounts)
      for (const std::size_t m : kWidths)
        for (const std::size_t k : kRhsWidths) {
          const block<T> a(rows, m, 17 * rows + m, f);
          const block<T> bdist(rows, k, 31 * rows + k, f);
          for (const bool self : {false, true}) {
            // crossprod(X): B is A's own first k columns, the same storage.
            if (self && k > m) continue;
            const block<T>& b = self ? a : bdist;
            const std::vector<T> c0 = start_acc<T>(agg_id::sum, m * k);
            const std::vector<T> want = ref_tmm(a, b, k, c0);
            for (const vmath::isa v : variants)
              for (const std::size_t split : kCallRows) {
                std::vector<T> c = c0;
                fold_in_calls(rows, split, [&](std::size_t r0, std::size_t n) {
                  kern::at_level(v).tmm_acc(
                      t, bop_id::mul, agg_id::sum, a.rows_from(r0),
                      b.rows_from(r0), n, m, k,
                      reinterpret_cast<char*>(c.data()));
                });
                ASSERT_TRUE(f == fill::general ? same_bits(c, want)
                                               : same_bits_or_nan(c, want))
                    << type_name(t) << " " << vmath::isa_name(v) << " rows "
                    << rows << " m " << m << " k " << k
                    << (self ? " A == B" : " A != B") << " calls of "
                    << (split ? split : rows) << " rows"
                    << (f == fill::specials ? " with NaN and inf" : "");
              }
          }
        }
  }
}

TYPED_TEST(SinkKernelTest, AggColAccMatchesSerialFoldBitForBit) {
  using T = TypeParam;
  const scalar_type t = type_of<T>();
  for (const agg_id op : kAllAggs) {
    const fill f = op == agg_id::prod ? fill::factors
                   : (op == agg_id::min_v || op == agg_id::max_v)
                       ? fill::specials
                       : fill::general;
    for (const std::size_t rows : kRowCounts)
      for (const std::size_t m : kWidths) {
        const block<T> a(rows, m, 7 * rows + m + static_cast<std::size_t>(op),
                         f);
        const std::vector<T> acc0 = start_acc<T>(op, m);
        const std::vector<T> want = ref_agg_col(op, a, acc0);
        for (const vmath::isa v : levels())
          for (const std::size_t split : kCallRows) {
            std::vector<T> acc = acc0;
            fold_in_calls(rows, split, [&](std::size_t r0, std::size_t n) {
              kern::at_level(v).agg_col_acc(
                  t, op, a.rows_from(r0), n, m,
                  reinterpret_cast<char*>(acc.data()));
            });
            ASSERT_TRUE(same_bits(acc, want))
                << type_name(t) << " " << vmath::isa_name(v) << " agg "
                << static_cast<int>(op) << " rows " << rows << " cols " << m
                << " calls of " << (split ? split : rows) << " rows";
          }
      }
  }
}

// The (f1, f2) pairs other than mul/sum take the generic loop; it folds the
// same way, one element at a time.
TEST(SinkKernel, TmmGenericPairMatchesSerialFoldBitForBit) {
  for (const std::size_t rows : kRowCounts)
    for (const std::size_t m : {std::size_t{3}, std::size_t{9}}) {
      const std::size_t k = 2;
      const block<double> a(rows, m, 5 + rows, fill::general);
      const block<double> b(rows, k, 9 + rows, fill::general);
      std::vector<double> want = start_acc<double>(agg_id::sum, m * k);
      std::vector<double> got = want;
      for (std::size_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t r = 0; r < rows; ++r) {
            const double d = a.at(r, i) - b.at(r, j);
            want[j * m + i] += d * d;
          }
      kern::tmm_acc(scalar_type::f64, bop_id::sqdiff, agg_id::sum,
                    a.rows_from(0), b.rows_from(0), rows, m, k,
                    reinterpret_cast<char*>(got.data()));
      ASSERT_TRUE(same_bits(got, want)) << "rows " << rows << " m " << m;
    }
}

// which.min / which.max per row: strict comparison, so the first of equal
// values wins; a NaN never replaces the running best, and a NaN in column 0
// is never replaced.
template <bool Min>
std::vector<std::int64_t> ref_which(const smat& h) {
  std::vector<std::int64_t> idx(h.nrow());
  for (std::size_t i = 0; i < h.nrow(); ++i) {
    double best = h(i, 0);
    for (std::size_t j = 1; j < h.ncol(); ++j) {
      const double x = h(i, j);
      if (Min ? x < best : x > best) {
        best = x;
        idx[i] = static_cast<std::int64_t>(j);
      }
    }
  }
  return idx;
}

/// Rows of few distinct values, so ties are common, with NaN sprinkled in
/// (including in column 0).
smat ties_and_nans(std::size_t n, std::size_t p) {
  smat h(n, p);
  rng64 g(2024);
  for (std::size_t j = 0; j < p; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t u = g.next_u64();
      h(i, j) = u % 11 == 0 ? std::numeric_limits<double>::quiet_NaN()
                            : static_cast<double>(u % 4) - 1.5;
    }
  return h;
}

TEST(SinkKernel, WhichMinMaxRowTiesAndNanInKernel) {
  // 1000 rows cross the kernel's 256-row stack blocks.
  const std::size_t n = 1000, p = 6;
  const smat h = ties_and_nans(n, p);
  const kern::view v{reinterpret_cast<const char*>(h.data()), n};
  std::vector<std::int64_t> got(n);
  kern::agg_row(scalar_type::f64, agg_id::min_v, true, v, n, p,
                reinterpret_cast<char*>(got.data()));
  EXPECT_EQ(got, ref_which<true>(h));
  kern::agg_row(scalar_type::f64, agg_id::max_v, true, v, n, p,
                reinterpret_cast<char*>(got.data()));
  EXPECT_EQ(got, ref_which<false>(h));
}

TEST(SinkKernel, WhichMinMaxRowTiesAndNanThroughEngine) {
  const std::size_t n = 3000, p = 5;
  const smat h = ties_and_nans(n, p);
  const std::vector<std::int64_t> want_min = ref_which<true>(h);
  const std::vector<std::int64_t> want_max = ref_which<false>(h);
  for (const std::size_t pcache : {std::size_t{2048}, std::size_t{64 * 1024}}) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = 1024;  // a 64 KiB chunk spans a whole partition
    o.pcache_bytes = pcache;
    o.small_nrow_threshold = 16;
    init(o);
    const dense_matrix x = dense_matrix::from_smat(h);
    const smat mn = which_min_row(x).to_smat();
    const smat mx = which_max_row(x).to_smat();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(mn(i, 0), static_cast<double>(want_min[i]))
          << "pcache " << pcache << " row " << i;
      ASSERT_EQ(mx(i, 0), static_cast<double>(want_max[i]))
          << "pcache " << pcache << " row " << i;
    }
  }
}

// ---- every kernel, every level: the baseline's bits ------------------------

constexpr scalar_type kAllTypes[] = {scalar_type::f64, scalar_type::f32,
                                     scalar_type::i64, scalar_type::i32};
constexpr bop_id kAllBops[] = {
    bop_id::add, bop_id::sub, bop_id::mul, bop_id::div,   bop_id::mod,
    bop_id::pow_v, bop_id::min_v, bop_id::max_v, bop_id::eq, bop_id::ne,
    bop_id::lt, bop_id::le, bop_id::gt, bop_id::ge, bop_id::and_v,
    bop_id::or_v, bop_id::sqdiff};
constexpr uop_id kAllUops[] = {
    uop_id::neg,    uop_id::abs_v,  uop_id::sqrt_v,  uop_id::exp_v,
    uop_id::log_v,  uop_id::log1p_v, uop_id::sigmoid, uop_id::square,
    uop_id::inv,    uop_id::floor_v, uop_id::ceil_v,  uop_id::sign,
    uop_id::not_v};

/// Ragged chunk lengths: every length up to 67 (each vector tail at every
/// width), a Pcache chunk of 128 rows and one of 1024.
std::vector<std::size_t> ragged_rows() {
  std::vector<std::size_t> r;
  for (std::size_t n = 1; n <= 67; ++n) r.push_back(n);
  r.push_back(128);
  r.push_back(1024);
  return r;
}

/// Input columns are kStride elements apart, more than any row count, and a
/// view starts 0-2 elements into its block, so loads are unaligned too.
constexpr std::size_t kMaxRows = 1024;
constexpr std::size_t kStride = kMaxRows + 3;
constexpr std::size_t kMaxCols = 39;

/// What the integer inputs of an op may hold so that it stays defined:
/// anything small, nonzero (a divisor, 1/x), 1..20 (sqrt, the vmath ops,
/// a power's exponent) or -1..1 (products over many rows, a power's base).
/// Floating-point inputs ignore it, except `finite`, which leaves out NaN
/// and infinities (casts to integers).
enum class domain { any, nonzero, small_pos, unit, finite };

template <typename T>
T draw_level_input(rng64& g, domain d) {
  const std::uint64_t u = g.next_u64();
  if constexpr (std::is_floating_point_v<T>) {
    switch (u % 16) {
      case 0:
        if (d != domain::finite) return std::numeric_limits<T>::quiet_NaN();
        break;
      case 1:
        if (d != domain::finite) return std::numeric_limits<T>::infinity();
        break;
      case 2:
        if (d != domain::finite) return -std::numeric_limits<T>::infinity();
        break;
      case 3: return T{-0.0};
      case 4: return T{0};
      case 5:
        return std::numeric_limits<T>::denorm_min() *
               static_cast<T>(1 + (u >> 8) % 1000);
      case 6: return static_cast<T>(static_cast<int>((u >> 8) % 21) - 10);
      default: break;
    }
    return static_cast<T>(g.next_normal() * 8.0);
  } else {
    const auto s = static_cast<std::int64_t>((u >> 8) % 101) - 50;
    switch (d) {
      case domain::nonzero: return static_cast<T>(s == 0 ? 7 : s);
      case domain::small_pos: return static_cast<T>(1 + (u >> 8) % 20);
      case domain::unit: return static_cast<T>(static_cast<int>(u % 3) - 1);
      default: return static_cast<T>(s);
    }
  }
}

/// kMaxCols columns of kStride elements.
template <typename T>
std::vector<T> level_input(std::uint64_t seed, domain d) {
  std::vector<T> x(kStride * kMaxCols + 2);
  rng64 g(seed);
  for (T& v : x) v = draw_level_input<T>(g, d);
  return x;
}

template <typename T>
kern::view view_of(const std::vector<T>& x, std::size_t rows) {
  return {reinterpret_cast<const char*>(x.data() + rows % 3), kStride};
}

/// Inputs for map and fold ops: the first operand's and the second's
/// domains for integer types.
domain first_domain(bop_id op) {
  if (op == bop_id::div) return domain::nonzero;
  return op == bop_id::pow_v ? domain::unit : domain::any;
}
domain second_domain(bop_id op) {
  if (op == bop_id::div) return domain::nonzero;
  return op == bop_id::pow_v ? domain::small_pos : domain::any;
}
domain uop_domain(uop_id op) {
  switch (op) {
    case uop_id::sqrt_v:
    case uop_id::exp_v:
    case uop_id::log_v:
    case uop_id::log1p_v:
    case uop_id::sigmoid: return domain::small_pos;
    case uop_id::inv: return domain::nonzero;
    default: return domain::any;
  }
}
domain agg_domain(agg_id op) {
  return op == agg_id::prod ? domain::unit : domain::any;
}
domain cum_domain(bop_id op) {
  return op == bop_id::mul ? domain::unit : domain::any;
}

/// Runs call(kernels, out) on the baseline level and on level v, each into
/// n elements of type T prefilled with the same canary, and compares all of
/// them, so a level that writes outside its outputs differs too. Equal
/// means the same bytes, except that any two NaNs match (same_bits_or_nan):
/// when both operands of an add are NaN, which one it returns is the
/// compiler's choice of operand order, and the inputs hold the positive
/// quiet NaN while inf - inf makes the negative one.
template <typename T, typename Call>
::testing::AssertionResult same_bits_on(vmath::isa v, std::size_t n,
                                        Call call) {
  std::vector<T> base(n), got(n);
  std::memset(base.data(), 0xa5, n * sizeof(T));
  std::memset(got.data(), 0xa5, n * sizeof(T));
  call(kern::at_level(vmath::isa::baseline), base.data());
  call(kern::at_level(v), got.data());
  if (same_bits_or_nan(base, got)) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (same_bits_or_nan(std::vector<T>{base[i]}, std::vector<T>{got[i]}))
    ++i;
  return ::testing::AssertionFailure()
         << "element " << i << " of " << n << ": " << base[i] << " vs "
         << got[i];
}

class KernelVariantTest : public ::testing::TestWithParam<vmath::isa> {
 protected:
  void SetUp() override {
    if (!vmath::isa_supported(GetParam()))
      GTEST_SKIP() << vmath::isa_name(GetParam())
                   << " is not supported on this CPU";
  }
  vmath::isa level() const { return GetParam(); }
  const std::vector<std::size_t> rows_ = ragged_rows();
};

/// Output column stride of a chunk of `rows` rows: never equal to rows.
std::size_t out_stride(std::size_t rows) { return rows + 5; }

TEST_P(KernelVariantTest, MapsSameBitsAsBaseline) {
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      for (const bop_id op : kAllBops) {
        const auto a = level_input<T>(11 + static_cast<int>(op),
                                      first_domain(op));
        const auto b = level_input<T>(23 + static_cast<int>(op),
                                      second_domain(op));
        // sweep_rowvec's per-column values and map_scalar's scalar, in the
        // second operand's domain.
        std::vector<double> vj(kMaxCols);
        for (std::size_t j = 0; j < kMaxCols; ++j)
          vj[j] = static_cast<double>(b[j * kStride]);
        const scalar_val c = std::is_floating_point_v<T>
                                 ? scalar_val(-1.5)
                                 : scalar_val(static_cast<std::int64_t>(
                                       op == bop_id::pow_v ? 2 : 3));
        for (const std::size_t rows : rows_)
          for (const std::size_t cols : {1, 3, 9}) {
            if (HasFailure()) return;
            const std::size_t os = out_stride(rows);
            const std::size_t n = os * cols;
            const kern::view av = view_of(a, rows), bv = view_of(b, rows);
            for (const bool bcast : {false, true})
              ASSERT_TRUE(same_bits_on<T>(level(), n, [&](auto& k, auto* o) {
                k.map2(t, op, av, bv, bcast, rows, cols,
                       reinterpret_cast<char*>(o), os);
              })) << "map2 " << type_name(t) << " " << bop_name(op)
                  << (bcast ? " broadcast" : "") << " rows " << rows
                  << " cols " << cols;
            for (const bool left : {false, true}) {
              // c / a and c ^ a need a in the second operand's domain.
              const kern::view sv = left ? bv : av;
              ASSERT_TRUE(same_bits_on<T>(level(), n, [&](auto& k, auto* o) {
                k.map_scalar(t, op, sv, c, left, rows, cols,
                             reinterpret_cast<char*>(o), os);
              })) << "map_scalar " << type_name(t) << " " << bop_name(op)
                  << (left ? " scalar left" : "") << " rows " << rows
                  << " cols " << cols;
            }
            ASSERT_TRUE(same_bits_on<T>(level(), n, [&](auto& k, auto* o) {
              k.sweep_rowvec(t, op, av, vj.data(), rows, cols,
                             reinterpret_cast<char*>(o), os);
            })) << "sweep_rowvec " << type_name(t) << " " << bop_name(op)
                << " rows " << rows << " cols " << cols;
          }
      }
    });
}

TEST_P(KernelVariantTest, SapplySameBitsAsBaseline) {
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      for (const uop_id op : kAllUops) {
        const auto a = level_input<T>(37 + static_cast<int>(op),
                                      uop_domain(op));
        for (const std::size_t rows : rows_)
          for (const std::size_t cols : {1, 3}) {
            if (HasFailure()) return;
            const std::size_t os = out_stride(rows);
            ASSERT_TRUE(same_bits_on<T>(
                level(), os * cols, [&](auto& k, auto* o) {
                  k.sapply(t, op, view_of(a, rows), rows, cols,
                           reinterpret_cast<char*>(o), os);
                }))
                << "sapply " << type_name(t) << " " << uop_name(op)
                << " rows " << rows << " cols " << cols;
          }
      }
    });
}

TEST_P(KernelVariantTest, InnerProdSameBitsAsBaseline) {
  const std::pair<bop_id, agg_id> pairs[] = {{bop_id::mul, agg_id::sum},
                                             {bop_id::sqdiff, agg_id::sum}};
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      const auto a = level_input<T>(41, domain::any);
      for (const std::size_t p : {1, 5, 39})
        for (const std::size_t k : {1, 2, 5, 8}) {
          // B in the integer input domain, so integer products stay small.
          smat B(p, k);
          rng64 g(43 + p * k);
          for (std::size_t j = 0; j < k; ++j)
            for (std::size_t i = 0; i < p; ++i)
              B(i, j) = static_cast<double>(draw_level_input<T>(g, domain::any));
          for (const auto& [f1, f2] : pairs)
            for (const std::size_t rows : rows_) {
              if (HasFailure()) return;
              const std::size_t os = out_stride(rows);
              ASSERT_TRUE(same_bits_on<T>(
                  level(), os * k, [&](auto& kk, auto* o) {
                    kk.inner_prod(t, f1, f2, view_of(a, rows), rows, p, B,
                                  reinterpret_cast<char*>(o), os);
                  }))
                  << "inner_prod " << type_name(t) << " " << bop_name(f1)
                  << "/" << agg_name(f2) << " rows " << rows << " p " << p
                  << " k " << k;
            }
        }
    });
}

TEST_P(KernelVariantTest, AggRowSameBitsAsBaseline) {
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      for (const agg_id op : kAllAggs) {
        const auto a = level_input<T>(47 + static_cast<int>(op),
                                      agg_domain(op));
        for (const std::size_t rows : rows_)
          for (const std::size_t cols : {1, 2, 9, 39}) {
            if (HasFailure()) return;
            const bool has_index = op == agg_id::min_v || op == agg_id::max_v;
            for (const bool index : {false, true}) {
              if (index && !has_index) continue;
              const auto run = [&](auto& k, auto* o) {
                k.agg_row(t, op, index, view_of(a, rows), rows, cols,
                          reinterpret_cast<char*>(o));
              };
              ASSERT_TRUE(index ? same_bits_on<std::int64_t>(level(), rows, run)
                                : same_bits_on<T>(level(), rows, run))
                  << "agg_row " << type_name(t) << " " << agg_name(op)
                  << (index ? " index" : "") << " rows " << rows << " cols "
                  << cols;
            }
          }
      }
    });
}

TEST_P(KernelVariantTest, CumulativeSameBitsAsBaseline) {
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      for (const bop_id op :
           {bop_id::add, bop_id::mul, bop_id::min_v, bop_id::max_v}) {
        const auto a = level_input<T>(53 + static_cast<int>(op),
                                      cum_domain(op));
        for (const std::size_t rows : rows_)
          for (const std::size_t cols : {1, 3, 9}) {
            if (HasFailure()) return;
            const std::size_t os = out_stride(rows);
            const std::size_t n = os * cols;
            for (const bool has_carry : {false, true})
              ASSERT_TRUE(same_bits_on<T>(
                  level(), n + cols, [&](auto& k, T* o) {
                    // The carry sits after the output, seeded from row 0.
                    T* carry = o + n;
                    for (std::size_t j = 0; j < cols; ++j)
                      carry[j] = a[j * kStride];
                    k.cum_col(t, op, view_of(a, rows), rows, cols,
                              reinterpret_cast<char*>(o), os,
                              reinterpret_cast<char*>(carry), has_carry);
                  }))
                  << "cum_col " << type_name(t) << " " << bop_name(op)
                  << (has_carry ? " with carry" : "") << " rows " << rows
                  << " cols " << cols;
            ASSERT_TRUE(same_bits_on<T>(level(), n, [&](auto& k, auto* o) {
              k.cum_row(t, op, view_of(a, rows), rows, cols,
                        reinterpret_cast<char*>(o), os);
            })) << "cum_row " << type_name(t) << " " << bop_name(op)
                << " rows " << rows << " cols " << cols;
          }
      }
    });
}

TEST_P(KernelVariantTest, CastAndCopySameBitsAsBaseline) {
  for (const scalar_type from : kAllTypes)
    dispatch_type(from, [&]<typename From>() {
      // Floating-point values cast to an integer type must be in range.
      const auto finite = level_input<From>(59, domain::finite);
      const auto any = level_input<From>(61, domain::any);
      for (const scalar_type to : kAllTypes) {
        const auto& a = is_floating(to) ? any : finite;
        for (const std::size_t rows : rows_) {
          if (HasFailure()) return;
          const std::size_t os = out_stride(rows), cols = 3;
          dispatch_type(to, [&]<typename To>() {
            ASSERT_TRUE(same_bits_on<To>(
                level(), os * cols, [&](auto& k, auto* o) {
                  k.cast(from, to, view_of(a, rows), rows, cols,
                         reinterpret_cast<char*>(o), os);
                }))
                << "cast " << type_name(from) << " -> " << type_name(to)
                << " rows " << rows;
          });
        }
      }
      for (const std::size_t rows : rows_) {
        const std::size_t os = out_stride(rows), cols = 3;
        ASSERT_TRUE(same_bits_on<From>(
            level(), os * cols, [&](auto& k, auto* o) {
              k.copy(from, view_of(any, rows), rows, cols,
                     reinterpret_cast<char*>(o), os);
            }))
            << "copy " << type_name(from) << " rows " << rows;
      }
    });
}

TEST_P(KernelVariantTest, SinkFoldsSameBitsAsBaseline) {
  const std::pair<bop_id, agg_id> tmm_pairs[] = {
      {bop_id::mul, agg_id::sum}, {bop_id::sqdiff, agg_id::sum}};
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      for (const agg_id op : kAllAggs) {
        const auto a = level_input<T>(67 + static_cast<int>(op),
                                      agg_domain(op));
        for (const std::size_t rows : rows_)
          for (const std::size_t cols : {1, 7, 8, 9, 17, 39}) {
            if (HasFailure()) return;
            ASSERT_TRUE(same_bits_on<T>(
                level(), cols, [&](auto& k, auto* o) {
                  const std::vector<T> acc0 = start_acc<T>(op, cols);
                  std::memcpy(o, acc0.data(), cols * sizeof(T));
                  k.agg_col_acc(t, op, view_of(a, rows), rows, cols,
                                reinterpret_cast<char*>(o));
                }))
                << "agg_col_acc " << type_name(t) << " " << agg_name(op)
                << " rows " << rows << " cols " << cols;
          }
      }
      const auto a = level_input<T>(71, domain::any);
      const auto b = level_input<T>(73, domain::any);
      for (const auto& [f1, f2] : tmm_pairs)
        for (const std::size_t rows : rows_)
          for (const std::size_t m : {1, 7, 9, 39})
            for (const std::size_t k : {1, 2, 8}) {
              if (HasFailure()) return;
              ASSERT_TRUE(same_bits_on<T>(
                  level(), m * k, [&](auto& kk, auto* o) {
                    const std::vector<T> c0 = start_acc<T>(f2, m * k);
                    std::memcpy(o, c0.data(), m * k * sizeof(T));
                    kk.tmm_acc(t, f1, f2, view_of(a, rows), view_of(b, rows),
                               rows, m, k, reinterpret_cast<char*>(o));
                  }))
                  << "tmm_acc " << type_name(t) << " " << bop_name(f1) << "/"
                  << agg_name(f2) << " rows " << rows << " m " << m << " k "
                  << k;
            }
    });
}

TEST_P(KernelVariantTest, GroupbySameBitsAsBaseline) {
  constexpr std::size_t kGroups = 5;
  // Labels 0..kGroups, so some fall outside [0, kGroups) and are skipped.
  std::vector<std::int64_t> labels(kStride + 2);
  rng64 g(79);
  for (auto& l : labels)
    l = static_cast<std::int64_t>(g.next_below(kGroups + 2)) - 1;
  const std::size_t col_labels[] = {0, 3, 1, 0, 5, 4, 2, 3, 0};
  for (const scalar_type t : kAllTypes)
    dispatch_type(t, [&]<typename T>() {
      for (const agg_id op : kAllAggs) {
        const auto a = level_input<T>(83 + static_cast<int>(op),
                                      agg_domain(op));
        for (const std::size_t rows : rows_) {
          if (HasFailure()) return;
          const std::size_t cols = 9;
          const kern::view lv = view_of(labels, rows);
          ASSERT_TRUE(same_bits_on<T>(
              level(), kGroups * cols, [&](auto& k, auto* o) {
                kern::agg_identity(t, op, reinterpret_cast<char*>(o),
                                   kGroups * cols);
                k.groupby_row_acc(t, op, view_of(a, rows), lv, rows, cols,
                                  kGroups, reinterpret_cast<char*>(o));
              }))
              << "groupby_row_acc " << type_name(t) << " " << agg_name(op)
              << " rows " << rows;
          const std::size_t os = out_stride(rows);
          ASSERT_TRUE(same_bits_on<T>(
              level(), os * kGroups, [&](auto& k, auto* o) {
                k.groupby_col(t, op, view_of(a, rows), rows, cols,
                              col_labels, kGroups,
                              reinterpret_cast<char*>(o), os);
              }))
              << "groupby_col " << type_name(t) << " " << agg_name(op)
              << " rows " << rows;
          ASSERT_TRUE(same_bits_on<std::int64_t>(
              level(), kGroups, [&](auto& k, std::int64_t* o) {
                std::fill(o, o + kGroups, std::int64_t{0});
                k.count_groups_acc(lv, rows, kGroups, o);
              }))
              << "count_groups_acc rows " << rows;
        }
      }
    });
}

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelVariantTest,
    ::testing::Values(vmath::isa::x86_64_v3, vmath::isa::x86_64_v4),
    [](const ::testing::TestParamInfo<vmath::isa>& i) {
      return i.param == vmath::isa::x86_64_v3 ? std::string("x86_64_v3")
                                              : std::string("x86_64_v4");
    });

}  // namespace
}  // namespace flashr
