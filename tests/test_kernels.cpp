// Sink kernel tests: kern::tmm_acc and kern::agg_col_acc fold every output
// element strictly in row order (DESIGN.md §11.2), so they must give exactly
// the bits of a plain serial fold — compared with memcmp, not a tolerance —
// for every scalar type, output width, right-hand width and row count, on
// every instruction-set variant the CPU supports, and the same bits however
// a chunk's rows are split across calls. Also pins agg_row's
// which.min/which.max semantics (first index wins ties, NaN never wins) in
// the kernel and through the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>
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

/// The tmm_acc variants with code of their own: every one the CPU supports,
/// each named in the log when it is not.
std::vector<vmath::isa> tmm_variants() {
  std::vector<vmath::isa> out;
  for (const vmath::isa v : {vmath::isa::baseline, vmath::isa::x86_64_v4}) {
    if (vmath::isa_supported(v))
      out.push_back(v);
    else
      std::printf("[ SKIPPED  ] tmm_acc variant %s: not supported on this "
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
  const std::vector<vmath::isa> variants = tmm_variants();
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
                  kern::tmm_acc(v, t, bop_id::mul, agg_id::sum,
                                a.rows_from(r0), b.rows_from(r0), n, m, k,
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
        for (const std::size_t split : kCallRows) {
          std::vector<T> acc = acc0;
          fold_in_calls(rows, split, [&](std::size_t r0, std::size_t n) {
            kern::agg_col_acc(t, op, a.rows_from(r0), n, m,
                              reinterpret_cast<char*>(acc.data()));
          });
          ASSERT_TRUE(same_bits(acc, want))
              << type_name(t) << " agg " << static_cast<int>(op) << " rows "
              << rows << " cols " << m << " calls of " << (split ? split : rows)
              << " rows";
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

}  // namespace
}  // namespace flashr
