// Every chunk kernel, compiled once per instruction-set level.
//
// This file compiles in two parts. The part after `#else` holds the
// kernels; the part before it includes this file again, once per level,
// each time inside its own namespace (level_baseline, level_v3, level_v4)
// and, for v3 and v4, under a pragma that gives every function defined
// there, templates and lambdas included, the level's target. So each
// level has its own copy of every loop, internal to this file: no template
// instantiation compiled for a wider level is shared with a narrower
// caller (tools/check_isa.py checks this on the built library). Each
// level's copy ends in a table of its entry points, and the free
// functions below call the table vmath::active_isa() picks.
//
// The levels give the same bits: a vector lane runs one element's (or one
// accumulator's) separately rounded operations in the baseline's order.
// That holds because the file is compiled with -ffp-contract=off
// (src/CMakeLists.txt), as core/vmath.cpp is; without it the v3 and v4
// levels would fuse multiplies and adds into FMAs.
#ifndef FLASHR_KERN_LEVEL

#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.h"
#include "core/vmath.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLASHR_KERN_X86 1
#include <immintrin.h>
#endif

#define FLASHR_KERN_LEVEL 0
namespace flashr::kern::level_baseline {
#include "core/kernels.cpp"  // NOLINT(bugprone-suspicious-include)
}  // namespace flashr::kern::level_baseline
#undef FLASHR_KERN_LEVEL

#ifdef FLASHR_KERN_X86
// KERN_TARGET_BEGIN(arch) ... KERN_TARGET_END gives every function defined
// between them the target `arch`.
#define KERN_PRAGMA(x) _Pragma(#x)
#ifdef __clang__
#define KERN_TARGET_BEGIN(arch)                                        \
  KERN_PRAGMA(clang attribute push(__attribute__((target(arch))),     \
                                   apply_to = function))
#define KERN_TARGET_END KERN_PRAGMA(clang attribute pop)
#else
#define KERN_TARGET_BEGIN(arch) \
  KERN_PRAGMA(GCC push_options) KERN_PRAGMA(GCC target(arch))
#define KERN_TARGET_END KERN_PRAGMA(GCC pop_options)
#endif

#define FLASHR_KERN_LEVEL 3
KERN_TARGET_BEGIN("arch=x86-64-v3")
namespace flashr::kern::level_v3 {
#include "core/kernels.cpp"  // NOLINT(bugprone-suspicious-include)
}  // namespace flashr::kern::level_v3
KERN_TARGET_END
#undef FLASHR_KERN_LEVEL

#define FLASHR_KERN_LEVEL 4
KERN_TARGET_BEGIN("arch=x86-64-v4")
namespace flashr::kern::level_v4 {
#include "core/kernels.cpp"  // NOLINT(bugprone-suspicious-include)
}  // namespace flashr::kern::level_v4
KERN_TARGET_END
#undef FLASHR_KERN_LEVEL
#endif

namespace flashr::kern {

namespace {

/// Indexed by vmath::isa. Elsewhere than x86-64 only the baseline is
/// built, and vmath::isa_supported selects nothing else.
#ifdef FLASHR_KERN_X86
constexpr const level_kernels* kLevels[] = {
    &level_baseline::kernels, &level_v3::kernels, &level_v4::kernels};
#else
constexpr const level_kernels* kLevels[] = {&level_baseline::kernels,
                                            &level_baseline::kernels,
                                            &level_baseline::kernels};
#endif

/// The widest level this CPU supports, chosen on first use.
const level_kernels& active() {
  static const level_kernels& chosen =
      *kLevels[static_cast<std::size_t>(vmath::active_isa())];
  return chosen;
}

}  // namespace

const level_kernels& at_level(vmath::isa v) {
  FLASHR_ASSERT(vmath::isa_supported(v), "kern::at_level: not supported here");
  return *kLevels[static_cast<std::size_t>(v)];
}

void sapply(scalar_type t, uop_id op, view a, std::size_t rows,
            std::size_t cols, char* out, std::size_t out_stride) {
  active().sapply(t, op, a, rows, cols, out, out_stride);
}

void map2(scalar_type t, bop_id op, view a, view b, bool bcast_b,
          std::size_t rows, std::size_t cols, char* out,
          std::size_t out_stride) {
  active().map2(t, op, a, b, bcast_b, rows, cols, out, out_stride);
}

void map_scalar(scalar_type t, bop_id op, view a, scalar_val c,
                bool scalar_left, std::size_t rows, std::size_t cols,
                char* out, std::size_t out_stride) {
  active().map_scalar(t, op, a, c, scalar_left, rows, cols, out, out_stride);
}

void sweep_rowvec(scalar_type t, bop_id op, view a, const double* v,
                  std::size_t rows, std::size_t cols, char* out,
                  std::size_t out_stride) {
  active().sweep_rowvec(t, op, a, v, rows, cols, out, out_stride);
}

void inner_prod(scalar_type t, bop_id f1, agg_id f2, view a, std::size_t rows,
                std::size_t p, const smat& B, char* out,
                std::size_t out_stride) {
  active().inner_prod(t, f1, f2, a, rows, p, B, out, out_stride);
}

void agg_row(scalar_type t, agg_id op, bool return_index, view a,
             std::size_t rows, std::size_t cols, char* out) {
  active().agg_row(t, op, return_index, a, rows, cols, out);
}

void cum_col(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride, char* carry,
             bool has_carry) {
  active().cum_col(t, op, a, rows, cols, out, out_stride, carry, has_carry);
}

void cum_row(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride) {
  active().cum_row(t, op, a, rows, cols, out, out_stride);
}

void groupby_col(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, const std::size_t* labels,
                 std::size_t num_groups, char* out, std::size_t out_stride) {
  active().groupby_col(t, op, a, rows, cols, labels, num_groups, out,
                       out_stride);
}

void cast(scalar_type from, scalar_type to, view a, std::size_t rows,
          std::size_t cols, char* out, std::size_t out_stride) {
  active().cast(from, to, a, rows, cols, out, out_stride);
}

void copy(scalar_type t, view a, std::size_t rows, std::size_t cols,
          char* out, std::size_t out_stride) {
  active().copy(t, a, rows, cols, out, out_stride);
}

void agg_col_acc(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, char* acc) {
  active().agg_col_acc(t, op, a, rows, cols, acc);
}

void tmm_acc(scalar_type t, bop_id f1, agg_id f2, view a, view b,
             std::size_t rows, std::size_t m, std::size_t k, char* acc) {
  active().tmm_acc(t, f1, f2, a, b, rows, m, k, acc);
}

void groupby_row_acc(scalar_type t, agg_id op, view a, view labels_i64,
                     std::size_t rows, std::size_t cols,
                     std::size_t num_groups, char* acc) {
  active().groupby_row_acc(t, op, a, labels_i64, rows, cols, num_groups, acc);
}

void count_groups_acc(view labels_i64, std::size_t rows,
                      std::size_t num_groups, std::int64_t* counts) {
  active().count_groups_acc(labels_i64, rows, num_groups, counts);
}

// Per-sink set-up and merges run once per pass or partition, not per
// chunk, on the baseline level.

void agg_identity(scalar_type t, agg_id op, char* out, std::size_t n) {
  level_baseline::agg_identity(t, op, out, n);
}

void agg_merge(scalar_type t, agg_id op, char* into, const char* from,
               std::size_t n) {
  level_baseline::agg_merge(t, op, into, from, n);
}

void agg_finish(scalar_type t, agg_id op, const char* acc, std::size_t n,
                char* out) {
  level_baseline::agg_finish(t, op, acc, n, out);
}

}  // namespace flashr::kern

#else  // FLASHR_KERN_LEVEL: one level's kernels

namespace {

// Element functions are templated on the op id so that op dispatch happens
// ONCE per chunk (in the dispatch_* helpers below) and the element loops
// compile to straight-line code that vectorizes. Passing the op as a runtime
// enum into the loops costs a branch per element — measured at >2x on the
// generalized inner-product path.

template <uop_id OP, typename T>
inline T uop_eval(T x) {
  if constexpr (OP == uop_id::neg) return static_cast<T>(-x);
  if constexpr (OP == uop_id::abs_v) {
    if constexpr (std::is_floating_point_v<T>)
      return std::abs(x);
    else
      return static_cast<T>(x < 0 ? -x : x);
  }
  if constexpr (OP == uop_id::sqrt_v)
    return static_cast<T>(std::sqrt(static_cast<double>(x)));
  if constexpr (OP == uop_id::square) return static_cast<T>(x * x);
  if constexpr (OP == uop_id::inv) return static_cast<T>(T{1} / x);
  if constexpr (OP == uop_id::floor_v)
    return static_cast<T>(std::floor(static_cast<double>(x)));
  if constexpr (OP == uop_id::ceil_v)
    return static_cast<T>(std::ceil(static_cast<double>(x)));
  if constexpr (OP == uop_id::sign)
    return static_cast<T>(x > T{0} ? 1 : (x < T{0} ? -1 : 0));
  if constexpr (OP == uop_id::not_v) return static_cast<T>(x == T{0} ? 1 : 0);
}

template <bop_id OP, typename T>
inline T bop_eval(T x, T y) {
  if constexpr (OP == bop_id::add) return static_cast<T>(x + y);
  if constexpr (OP == bop_id::sub) return static_cast<T>(x - y);
  if constexpr (OP == bop_id::mul) return static_cast<T>(x * y);
  if constexpr (OP == bop_id::div) return static_cast<T>(x / y);
  if constexpr (OP == bop_id::mod) {
    if constexpr (std::is_floating_point_v<T>)
      return std::fmod(x, y);
    else
      return static_cast<T>(y == 0 ? 0 : x % y);
  }
  if constexpr (OP == bop_id::pow_v)
    return static_cast<T>(
        std::pow(static_cast<double>(x), static_cast<double>(y)));
  if constexpr (OP == bop_id::min_v) return std::min(x, y);
  if constexpr (OP == bop_id::max_v) return std::max(x, y);
  if constexpr (OP == bop_id::eq) return static_cast<T>(x == y ? 1 : 0);
  if constexpr (OP == bop_id::ne) return static_cast<T>(x != y ? 1 : 0);
  if constexpr (OP == bop_id::lt) return static_cast<T>(x < y ? 1 : 0);
  if constexpr (OP == bop_id::le) return static_cast<T>(x <= y ? 1 : 0);
  if constexpr (OP == bop_id::gt) return static_cast<T>(x > y ? 1 : 0);
  if constexpr (OP == bop_id::ge) return static_cast<T>(x >= y ? 1 : 0);
  if constexpr (OP == bop_id::and_v)
    return static_cast<T>((x != T{0} && y != T{0}) ? 1 : 0);
  if constexpr (OP == bop_id::or_v)
    return static_cast<T>((x != T{0} || y != T{0}) ? 1 : 0);
  if constexpr (OP == bop_id::sqdiff) {
    const T d = static_cast<T>(x - y);
    return static_cast<T>(d * d);
  }
}

template <agg_id OP, typename T>
inline constexpr T agg_identity_of() {
  if constexpr (OP == agg_id::sum) return T{0};
  if constexpr (OP == agg_id::prod) return T{1};
  if constexpr (OP == agg_id::min_v) {
    if constexpr (std::is_floating_point_v<T>)
      return std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::max();
  }
  if constexpr (OP == agg_id::max_v) {
    if constexpr (std::is_floating_point_v<T>)
      return -std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::lowest();
  }
  if constexpr (OP == agg_id::count_nonzero) return T{0};
  if constexpr (OP == agg_id::any_v) return T{0};
  if constexpr (OP == agg_id::all_v) return T{1};
}

template <agg_id OP, typename T>
inline T agg_step(T acc, T x) {
  if constexpr (OP == agg_id::sum) return static_cast<T>(acc + x);
  if constexpr (OP == agg_id::prod) return static_cast<T>(acc * x);
  if constexpr (OP == agg_id::min_v) return std::min(acc, x);
  if constexpr (OP == agg_id::max_v) return std::max(acc, x);
  if constexpr (OP == agg_id::count_nonzero)
    return static_cast<T>(acc + (x != T{0} ? 1 : 0));
  if constexpr (OP == agg_id::any_v)
    return static_cast<T>((acc != T{0} || x != T{0}) ? 1 : 0);
  if constexpr (OP == agg_id::all_v)
    return static_cast<T>((acc != T{0} && x != T{0}) ? 1 : 0);
}

/// Combine two partial accumulators (count partials combine by addition).
template <agg_id OP, typename T>
inline T agg_combine(T a, T b) {
  if constexpr (OP == agg_id::sum || OP == agg_id::count_nonzero)
    return static_cast<T>(a + b);
  if constexpr (OP == agg_id::prod) return static_cast<T>(a * b);
  if constexpr (OP == agg_id::min_v) return std::min(a, b);
  if constexpr (OP == agg_id::max_v) return std::max(a, b);
  if constexpr (OP == agg_id::any_v)
    return static_cast<T>((a != T{0} || b != T{0}) ? 1 : 0);
  if constexpr (OP == agg_id::all_v)
    return static_cast<T>((a != T{0} && b != T{0}) ? 1 : 0);
}

// ---- chunk-level op dispatchers -------------------------------------------

/// The transcendental unary ops, which core/vmath computes; nullopt for the
/// ops uop_eval computes.
std::optional<vmath::fn> vmath_fn_of(uop_id op) {
  switch (op) {
    case uop_id::exp_v: return vmath::fn::exp;
    case uop_id::log_v: return vmath::fn::log;
    case uop_id::log1p_v: return vmath::fn::log1p;
    case uop_id::sigmoid: return vmath::fn::sigmoid;
    default: return std::nullopt;
  }
}

/// Dispatch over the ops uop_eval computes (every op vmath_fn_of rejects).
template <typename F>
decltype(auto) dispatch_uop(uop_id op, F&& f) {
  switch (op) {
    case uop_id::neg: return f.template operator()<uop_id::neg>();
    case uop_id::abs_v: return f.template operator()<uop_id::abs_v>();
    case uop_id::sqrt_v: return f.template operator()<uop_id::sqrt_v>();
    case uop_id::exp_v:
    case uop_id::log_v:
    case uop_id::log1p_v:
    case uop_id::sigmoid:
      FLASHR_ASSERT(false, "dispatch_uop: core/vmath computes this op");
      break;
    case uop_id::square: return f.template operator()<uop_id::square>();
    case uop_id::inv: return f.template operator()<uop_id::inv>();
    case uop_id::floor_v: return f.template operator()<uop_id::floor_v>();
    case uop_id::ceil_v: return f.template operator()<uop_id::ceil_v>();
    case uop_id::sign: return f.template operator()<uop_id::sign>();
    case uop_id::not_v: return f.template operator()<uop_id::not_v>();
  }
  return f.template operator()<uop_id::neg>();
}

template <typename F>
decltype(auto) dispatch_bop(bop_id op, F&& f) {
  switch (op) {
    case bop_id::add: return f.template operator()<bop_id::add>();
    case bop_id::sub: return f.template operator()<bop_id::sub>();
    case bop_id::mul: return f.template operator()<bop_id::mul>();
    case bop_id::div: return f.template operator()<bop_id::div>();
    case bop_id::mod: return f.template operator()<bop_id::mod>();
    case bop_id::pow_v: return f.template operator()<bop_id::pow_v>();
    case bop_id::min_v: return f.template operator()<bop_id::min_v>();
    case bop_id::max_v: return f.template operator()<bop_id::max_v>();
    case bop_id::eq: return f.template operator()<bop_id::eq>();
    case bop_id::ne: return f.template operator()<bop_id::ne>();
    case bop_id::lt: return f.template operator()<bop_id::lt>();
    case bop_id::le: return f.template operator()<bop_id::le>();
    case bop_id::gt: return f.template operator()<bop_id::gt>();
    case bop_id::ge: return f.template operator()<bop_id::ge>();
    case bop_id::and_v: return f.template operator()<bop_id::and_v>();
    case bop_id::or_v: return f.template operator()<bop_id::or_v>();
    case bop_id::sqdiff: return f.template operator()<bop_id::sqdiff>();
  }
  return f.template operator()<bop_id::add>();
}

template <typename F>
decltype(auto) dispatch_agg(agg_id op, F&& f) {
  switch (op) {
    case agg_id::sum: return f.template operator()<agg_id::sum>();
    case agg_id::prod: return f.template operator()<agg_id::prod>();
    case agg_id::min_v: return f.template operator()<agg_id::min_v>();
    case agg_id::max_v: return f.template operator()<agg_id::max_v>();
    case agg_id::count_nonzero:
      return f.template operator()<agg_id::count_nonzero>();
    case agg_id::any_v: return f.template operator()<agg_id::any_v>();
    case agg_id::all_v: return f.template operator()<agg_id::all_v>();
  }
  return f.template operator()<agg_id::sum>();
}

template <typename T>
const T* col_of(view v, std::size_t j) {
  return reinterpret_cast<const T*>(v.data) + j * v.stride;
}

/// Row block for per-row temporaries kept on the stack (vmath's f64 widening
/// in sapply, the running best in agg_row), so the chunk loop stays
/// allocation-free.
constexpr std::size_t kStackRows = 256;

// ---- side-by-side folds ---------------------------------------------------
//
// The sink kernels fold each output element strictly in row order, so a
// result never depends on how a partition's rows were split into chunks
// (DESIGN.md §11.2). One fold is a chain of dependent steps (adds, for a
// sum) waiting a full latency per row; the kernels below run kFoldWidth
// folds side by side, each with its own accumulator, so the chains overlap.
// Every accumulator still takes the same separately rounded steps in the
// same row order, so the bits are those of one fold at a time.

constexpr std::size_t kFoldWidth = 8;

/// Calls f.template operator()<W>(j0) for the blocks [j0, j0 + W) that
/// cover [0, n): kFoldWidth columns at a time, then the remainder as one
/// narrower block (39 columns fold as 4 x 8 + 7).
template <typename F>
void for_each_fold_block(std::size_t n, F&& f) {
  static_assert(kFoldWidth == 8, "the remainder switch covers widths 1..7");
  std::size_t j0 = 0;
  for (; j0 + kFoldWidth <= n; j0 += kFoldWidth)
    f.template operator()<kFoldWidth>(j0);
  switch (n - j0) {
    case 1: f.template operator()<1>(j0); break;
    case 2: f.template operator()<2>(j0); break;
    case 3: f.template operator()<3>(j0); break;
    case 4: f.template operator()<4>(j0); break;
    case 5: f.template operator()<5>(j0); break;
    case 6: f.template operator()<6>(j0); break;
    case 7: f.template operator()<7>(j0); break;
    default: break;
  }
}

// The pack expansions spell out one step per column, so the accumulators
// are named registers at -O2 without an unroll pragma (GCC 12 leaves a
// loop over a T[8] accumulator array rolled there).

// The folds pack their accumulators two to a 128-bit register, as the
// baseline does. Filling a 256- or 512-bit register from eight columns
// costs shuffles that made the v3 and v4 folds slower than the baseline's
// (bench_kernels, tmm_acc and agg_col_acc per level); noinline keeps the
// wider caller from absorbing the setting.
#if FLASHR_KERN_LEVEL == 0
#define KERN_FOLD
#else
#define KERN_FOLD __attribute__((noinline, target("prefer-vector-width=128")))
#endif

/// acc[j0 + q] = op-fold over rows of column j0 + q, for q in Q.
template <agg_id OP, typename T, std::size_t... Q>
KERN_FOLD void agg_cols_side_by_side(std::index_sequence<Q...>, view a,
                                     std::size_t j0, std::size_t rows,
                                     T* acc) {
  const T* col[] = {col_of<T>(a, j0 + Q)...};
  T v[] = {acc[j0 + Q]...};
  for (std::size_t r = 0; r < rows; ++r)
    ((v[Q] = agg_step<OP>(v[Q], col[Q][r])), ...);
  ((acc[j0 + Q] = v[Q]), ...);
}

/// c[i0 + q] += sum over rows of A_r,(i0+q) * b_r, for q in Q.
template <typename T, std::size_t... Q>
KERN_FOLD void dot_cols_side_by_side(std::index_sequence<Q...>, view a,
                                     std::size_t i0, const T* b,
                                     std::size_t rows, T* c) {
  const T* col[] = {col_of<T>(a, i0 + Q)...};
  T v[] = {c[i0 + Q]...};
  for (std::size_t r = 0; r < rows; ++r) {
    const T br = b[r];
    ((v[Q] = agg_step<agg_id::sum>(v[Q],
                                   bop_eval<bop_id::mul>(col[Q][r], br))),
     ...);
  }
  ((c[i0 + Q] = v[Q]), ...);
}

// ---- crossprod on x86-64-v4 -----------------------------------------------
//
// tmm_acc's f64 mul/sum case with C's elements in vector lanes: one 8-lane
// accumulator holds C[i0 .. i0 + 8, j] for one column j of B. For every 8
// rows, A's 8 column segments are transposed in registers, so that vector t
// holds row r + t of the block; then, row by row, each accumulator adds
// row * broadcast(B[r + t, j]). The multiply and the add are two rounded
// instructions (this file builds with -ffp-contract=off, so the compiler
// fuses nothing into an FMA) and every lane takes its rows in order, so
// each C element gets the serial fold's bits. Only the x86-64-v4 level
// compiles it.

#if FLASHR_KERN_LEVEL == 4
#define KERN_V4_INLINE __attribute__((always_inline)) inline

/// x[q] holds 8 rows of column q on entry and row q of the 8 columns on
/// return: pairs interleave, then quads, then the 256-bit halves. GCC 12's
/// unmasked unpack and shuffle intrinsics pass an uninitialized source and
/// trip -Wmaybe-uninitialized, so these are the masked forms selecting
/// every lane, which are the same instructions.
KERN_V4_INLINE void transpose8x8(__m512d* x) {
  constexpr __mmask8 all = 0xff;
  const __m512d t0 = _mm512_mask_unpacklo_pd(x[0], all, x[0], x[1]);
  const __m512d t1 = _mm512_mask_unpackhi_pd(x[0], all, x[0], x[1]);
  const __m512d t2 = _mm512_mask_unpacklo_pd(x[2], all, x[2], x[3]);
  const __m512d t3 = _mm512_mask_unpackhi_pd(x[2], all, x[2], x[3]);
  const __m512d t4 = _mm512_mask_unpacklo_pd(x[4], all, x[4], x[5]);
  const __m512d t5 = _mm512_mask_unpackhi_pd(x[4], all, x[4], x[5]);
  const __m512d t6 = _mm512_mask_unpacklo_pd(x[6], all, x[6], x[7]);
  const __m512d t7 = _mm512_mask_unpackhi_pd(x[6], all, x[6], x[7]);
  // Lanes {0, 1, 8, 9, 4, 5, 12, 13} and {2, 3, 10, 11, 6, 7, 14, 15}.
  const __m512i even = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
  const __m512i odd = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
  const __m512d u0 = _mm512_permutex2var_pd(t0, even, t2);  // rows 0, 4
  const __m512d u1 = _mm512_permutex2var_pd(t0, odd, t2);   // rows 2, 6
  const __m512d u2 = _mm512_permutex2var_pd(t1, even, t3);  // rows 1, 5
  const __m512d u3 = _mm512_permutex2var_pd(t1, odd, t3);   // rows 3, 7
  const __m512d u4 = _mm512_permutex2var_pd(t4, even, t6);
  const __m512d u5 = _mm512_permutex2var_pd(t4, odd, t6);
  const __m512d u6 = _mm512_permutex2var_pd(t5, even, t7);
  const __m512d u7 = _mm512_permutex2var_pd(t5, odd, t7);
  x[0] = _mm512_mask_shuffle_f64x2(u0, all, u0, u4, 0x44);
  x[1] = _mm512_mask_shuffle_f64x2(u2, all, u2, u6, 0x44);
  x[2] = _mm512_mask_shuffle_f64x2(u1, all, u1, u5, 0x44);
  x[3] = _mm512_mask_shuffle_f64x2(u3, all, u3, u7, 0x44);
  x[4] = _mm512_mask_shuffle_f64x2(u0, all, u0, u4, 0xee);
  x[5] = _mm512_mask_shuffle_f64x2(u2, all, u2, u6, 0xee);
  x[6] = _mm512_mask_shuffle_f64x2(u1, all, u1, u5, 0xee);
  x[7] = _mm512_mask_shuffle_f64x2(u3, all, u3, u7, 0xee);
}

/// x[q] = rows [r, r + 8) of column q; rows outside `live` read as zero
/// and are not touched in memory.
template <std::size_t... Q>
KERN_V4_INLINE void load_cols(std::index_sequence<Q...>,
                              const double* const* col, std::size_t r,
                              __mmask8 live, __m512d* x) {
  ((x[Q] = _mm512_maskz_loadu_pd(live, col[Q] + r)), ...);
}

/// Row r's step for every accumulator: acc[J] += row * B[r, j0 + J].
template <std::size_t... J>
KERN_V4_INLINE void fold_row(std::index_sequence<J...>, __m512d row,
                             const double* const* bc, std::size_t r,
                             __m512d* acc) {
  ((acc[J] = _mm512_add_pd(acc[J],
                           _mm512_mul_pd(row, _mm512_set1_pd(bc[J][r])))),
   ...);
}

/// The 8 rows of a transposed block, in order.
template <std::size_t... T, typename Js>
KERN_V4_INLINE void fold_rows(std::index_sequence<T...>, Js js,
                              const __m512d* x, const double* const* bc,
                              std::size_t r, __m512d* acc) {
  (fold_row(js, x[T], bc, r + T, acc), ...);
}

/// C[i0 + q, j0 + J] += sum over rows of A[r, i0 + q] * B[r, j0 + J], for
/// the lanes q in `lanes`. col[q] is column i0 + q of A (a ragged block
/// repeats its last column in the lanes past m, where C is neither read
/// nor written), b is column j0 of B and c points at C[i0, j0].
template <std::size_t... J>
void crossprod_block_v4(std::index_sequence<J...> js,
                        const double* const* col, __mmask8 lanes,
                        const double* b, std::size_t b_stride,
                        std::size_t rows, double* c, std::size_t c_stride) {
  const double* bc[] = {b + J * b_stride...};
  __m512d acc[] = {_mm512_maskz_loadu_pd(lanes, c + J * c_stride)...};
  __m512d x[8];
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    load_cols(std::make_index_sequence<8>{}, col, r, 0xff, x);
    transpose8x8(x);
    fold_rows(std::make_index_sequence<8>{}, js, x, bc, r, acc);
  }
  if (r < rows) {
    // The row tail: masked loads, so nothing past the chunk is read.
    const std::size_t n = rows - r;
    load_cols(std::make_index_sequence<8>{}, col, r,
              static_cast<__mmask8>((1u << n) - 1), x);
    transpose8x8(x);
    for (std::size_t t = 0; t < n; ++t) fold_row(js, x[t], bc, r + t, acc);
  }
  (_mm512_mask_storeu_pd(c + J * c_stride, lanes, acc[J]), ...);
}

void crossprod_v4(view a, view b, std::size_t rows, std::size_t m,
                  std::size_t k, double* C) {
  for (std::size_t i0 = 0; i0 < m; i0 += 8) {
    const std::size_t w = std::min<std::size_t>(8, m - i0);
    const double* col[8];
    for (std::size_t q = 0; q < 8; ++q)
      col[q] = col_of<double>(a, i0 + std::min(q, w - 1));
    const auto lanes = static_cast<__mmask8>((1u << w) - 1);
    for_each_fold_block(k, [&]<std::size_t W>(std::size_t j0) {
      crossprod_block_v4(std::make_index_sequence<W>{}, col, lanes,
                         col_of<double>(b, j0), b.stride, rows,
                         C + j0 * m + i0, m);
    });
  }
}
#undef KERN_V4_INLINE
#endif

void sapply(scalar_type t, uop_id op, view a, std::size_t rows,
            std::size_t cols, char* out, std::size_t out_stride) {
  if (const std::optional<vmath::fn> f = vmath_fn_of(op)) {
    // vmath works in f64; other types widen to f64 and narrow the result
    // back, the same conversions uop_eval makes.
    dispatch_type(t, [&]<typename T>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        if constexpr (std::is_same_v<T, double>) {
          vmath::apply(*f, ac, oc, rows);
        } else {
          double in[kStackRows];
          double res[kStackRows];
          for (std::size_t i0 = 0; i0 < rows; i0 += kStackRows) {
            const std::size_t m = std::min(kStackRows, rows - i0);
            for (std::size_t i = 0; i < m; ++i)
              in[i] = static_cast<double>(ac[i0 + i]);
            vmath::apply(*f, in, res, m);
            for (std::size_t i = 0; i < m; ++i)
              oc[i0 + i] = static_cast<T>(res[i]);
          }
        }
      }
    });
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_uop(op, [&]<uop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i) oc[i] = uop_eval<OP>(ac[i]);
      }
    });
  });
}

void map2(scalar_type t, bop_id op, view a, view b, bool bcast_b,
          std::size_t rows, std::size_t cols, char* out,
          std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        const T* bc = col_of<T>(b, bcast_b ? 0 : j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = bop_eval<OP>(ac[i], bc[i]);
      }
    });
  });
}

void map_scalar(scalar_type t, bop_id op, view a, scalar_val c,
                bool scalar_left, std::size_t rows, std::size_t cols,
                char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      const T cv = c.as<T>();
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        if (scalar_left)
          for (std::size_t i = 0; i < rows; ++i)
            oc[i] = bop_eval<OP>(cv, ac[i]);
        else
          for (std::size_t i = 0; i < rows; ++i)
            oc[i] = bop_eval<OP>(ac[i], cv);
      }
    });
  });
}

void sweep_rowvec(scalar_type t, bop_id op, view a, const double* v,
                  std::size_t rows, std::size_t cols, char* out,
                  std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        const T vj = static_cast<T>(v[j]);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = bop_eval<OP>(ac[i], vj);
      }
    });
  });
}

/// Rows of a product block whose sums stay in registers.
constexpr std::size_t kProdRows = 32;

/// out[i0 + r, j0 + q] = the sum over c < p of A[i0 + r, c] * B[c, j0 + q]
/// for r < R and q < W, folded from +0 with c in order (gemm_nn's fold):
/// the R x W sums stay in registers while A's p columns stream past.
template <std::size_t W, std::size_t R, typename T>
void prod_block(view a, std::size_t i0, std::size_t p,
                            const smat& B, std::size_t j0, T* out,
                            std::size_t out_stride) {
  T acc[W][R] = {};
  for (std::size_t c = 0; c < p; ++c) {
    const T* ac = col_of<T>(a, c) + i0;
    for (std::size_t q = 0; q < W; ++q) {
      const T b = static_cast<T>(B(c, j0 + q));
      for (std::size_t r = 0; r < R; ++r)
        acc[q][r] = agg_step<agg_id::sum>(acc[q][r],
                                          bop_eval<bop_id::mul>(ac[r], b));
    }
  }
  for (std::size_t q = 0; q < W; ++q)
    std::copy(acc[q], acc[q] + R, out + (j0 + q) * out_stride + i0);
}

void inner_prod(scalar_type t, bop_id f1, agg_id f2, view a, std::size_t rows,
                std::size_t p, const smat& B, char* out,
                std::size_t out_stride) {
  const std::size_t k = B.ncol();
  FLASHR_ASSERT(B.nrow() == p, "inner_prod: B row count mismatch");
  if (f1 == bop_id::mul && f2 == agg_id::sum) {
    // The matrix product: blocks of kProdRows rows by 4 columns of B, then
    // the ragged rows one at a time and the columns past the last 4 one at
    // a time. Every output folds as the generic loop below folds it.
    dispatch_type(t, [&]<typename T>() {
      T* o = reinterpret_cast<T*>(out);
      const auto cols = [&]<std::size_t W>(std::size_t j0) {
        std::size_t i0 = 0;
        for (; i0 + kProdRows <= rows; i0 += kProdRows)
          prod_block<W, kProdRows, T>(a, i0, p, B, j0, o, out_stride);
        for (; i0 < rows; ++i0)
          prod_block<W, 1, T>(a, i0, p, B, j0, o, out_stride);
      };
      std::size_t j0 = 0;
      for (; j0 + 4 <= k; j0 += 4) cols.template operator()<4>(j0);
      for (; j0 < k; ++j0) cols.template operator()<1>(j0);
    });
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(f1, [&]<bop_id F1>() {
      dispatch_agg(f2, [&]<agg_id F2>() {
        T* o = reinterpret_cast<T*>(out);
        for (std::size_t j = 0; j < k; ++j) {
          T* oc = o + j * out_stride;
          std::fill(oc, oc + rows, agg_identity_of<F2, T>());
          for (std::size_t c = 0; c < p; ++c) {
            const T* ac = col_of<T>(a, c);
            const T bcj = static_cast<T>(B(c, j));
            for (std::size_t i = 0; i < rows; ++i)
              oc[i] = agg_step<F2>(oc[i], bop_eval<F1>(ac[i], bcj));
          }
        }
      });
    });
  });
}

void agg_row(scalar_type t, agg_id op, bool return_index, view a,
             std::size_t rows, std::size_t cols, char* out) {
  if (return_index) {
    FLASHR_ASSERT(op == agg_id::min_v || op == agg_id::max_v,
                  "which.min/which.max require min/max aggregation");
    dispatch_type(t, [&]<typename T>() {
      std::int64_t* o = reinterpret_cast<std::int64_t*>(out);
      // A strict comparison, so the first column wins ties; a NaN never
      // replaces the running best, and a NaN in column 0 is never replaced.
      auto scan = [&](auto better) {
        T best[kStackRows];
        for (std::size_t i0 = 0; i0 < rows; i0 += kStackRows) {
          const std::size_t n = std::min(kStackRows, rows - i0);
          const T* first = col_of<T>(a, 0) + i0;
          std::copy(first, first + n, best);
          std::fill(o + i0, o + i0 + n, std::int64_t{0});
          for (std::size_t j = 1; j < cols; ++j) {
            const T* ac = col_of<T>(a, j) + i0;
            for (std::size_t i = 0; i < n; ++i)
              if (better(ac[i], best[i])) {
                best[i] = ac[i];
                o[i0 + i] = static_cast<std::int64_t>(j);
              }
          }
        }
      };
      if (op == agg_id::min_v)
        scan(std::less<T>{});
      else
        scan(std::greater<T>{});
    });
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(out);
      std::fill(o, o + rows, agg_identity_of<OP, T>());
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        for (std::size_t i = 0; i < rows; ++i)
          o[i] = agg_step<OP>(o[i], ac[i]);
      }
    });
  });
}

void cum_col(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride, char* carry,
             bool has_carry) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      T* cy = reinterpret_cast<T*>(carry);
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        T run{};
        std::size_t i = 0;
        if (has_carry) {
          run = cy[j];
        } else if (rows > 0) {
          run = ac[0];
          oc[0] = run;
          i = 1;
        }
        for (; i < rows; ++i) {
          run = bop_eval<OP>(run, ac[i]);
          oc[i] = run;
        }
        cy[j] = run;
      }
    });
  });
}

void cum_row(scalar_type t, bop_id op, view a, std::size_t rows,
             std::size_t cols, char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(op, [&]<bop_id OP>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + j * out_stride;
        if (j == 0) {
          for (std::size_t i = 0; i < rows; ++i) oc[i] = ac[i];
        } else {
          const T* prev = reinterpret_cast<T*>(out) + (j - 1) * out_stride;
          for (std::size_t i = 0; i < rows; ++i)
            oc[i] = bop_eval<OP>(prev[i], ac[i]);
        }
      }
    });
  });
}

void groupby_col(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, const std::size_t* labels,
                 std::size_t num_groups, char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      for (std::size_t g = 0; g < num_groups; ++g) {
        T* oc = reinterpret_cast<T*>(out) + g * out_stride;
        std::fill(oc, oc + rows, agg_identity_of<OP, T>());
      }
      for (std::size_t j = 0; j < cols; ++j) {
        if (labels[j] >= num_groups) continue;
        const T* ac = col_of<T>(a, j);
        T* oc = reinterpret_cast<T*>(out) + labels[j] * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = agg_step<OP>(oc[i], ac[i]);
      }
    });
  });
}

void cast(scalar_type from, scalar_type to, view a, std::size_t rows,
          std::size_t cols, char* out, std::size_t out_stride) {
  dispatch_type(from, [&]<typename From>() {
    dispatch_type(to, [&]<typename To>() {
      for (std::size_t j = 0; j < cols; ++j) {
        const From* ac = col_of<From>(a, j);
        To* oc = reinterpret_cast<To*>(out) + j * out_stride;
        for (std::size_t i = 0; i < rows; ++i)
          oc[i] = static_cast<To>(ac[i]);
      }
    });
  });
}

void copy(scalar_type t, view a, std::size_t rows, std::size_t cols,
          char* out, std::size_t out_stride) {
  dispatch_type(t, [&]<typename T>() {
    for (std::size_t j = 0; j < cols; ++j) {
      const T* ac = col_of<T>(a, j);
      T* oc = reinterpret_cast<T*>(out) + j * out_stride;
      std::copy(ac, ac + rows, oc);
    }
  });
}

void agg_col_acc(scalar_type t, agg_id op, view a, std::size_t rows,
                 std::size_t cols, char* acc) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(acc);
      for_each_fold_block(cols, [&]<std::size_t W>(std::size_t j0) {
        agg_cols_side_by_side<OP>(std::make_index_sequence<W>{}, a, j0, rows,
                                  o);
      });
    });
  });
}

void tmm_acc(scalar_type t, bop_id f1, agg_id f2, view a, view b,
             std::size_t rows, std::size_t m, std::size_t k, char* acc) {
#if FLASHR_KERN_LEVEL == 4
  if (t == scalar_type::f64 && f1 == bop_id::mul && f2 == agg_id::sum) {
    crossprod_v4(a, b, rows, m, k, reinterpret_cast<double*>(acc));
    return;
  }
#endif
  if (f1 == bop_id::mul && f2 == agg_id::sum) {
    // crossprod: each C element folds its rows in order, kFoldWidth
    // elements of a C column side by side. Only this case is written out
    // per block width: the generic loop below serves the rest of the
    // 17 x 7 (f1, f2) dispatch, whose size the blocks would multiply.
    dispatch_type(t, [&]<typename T>() {
      T* C = reinterpret_cast<T*>(acc);
      for (std::size_t j = 0; j < k; ++j) {
        const T* bc = col_of<T>(b, j);
        for_each_fold_block(m, [&]<std::size_t W>(std::size_t i0) {
          dot_cols_side_by_side(std::make_index_sequence<W>{}, a, i0, bc,
                                rows, C + j * m);
        });
      }
    });
    return;
  }
  dispatch_type(t, [&]<typename T>() {
    dispatch_bop(f1, [&]<bop_id F1>() {
      dispatch_agg(f2, [&]<agg_id F2>() {
        T* C = reinterpret_cast<T*>(acc);
        for (std::size_t j = 0; j < k; ++j) {
          const T* bc = col_of<T>(b, j);
          for (std::size_t i = 0; i < m; ++i) {
            const T* ac = col_of<T>(a, i);
            T v = C[j * m + i];
            for (std::size_t r = 0; r < rows; ++r)
              v = agg_step<F2>(v, bop_eval<F1>(ac[r], bc[r]));
            C[j * m + i] = v;
          }
        }
      });
    });
  });
}

void groupby_row_acc(scalar_type t, agg_id op, view a, view labels_i64,
                     std::size_t rows, std::size_t cols,
                     std::size_t num_groups, char* acc) {
  const std::int64_t* lab =
      reinterpret_cast<const std::int64_t*>(labels_i64.data);
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(acc);
      for (std::size_t j = 0; j < cols; ++j) {
        const T* ac = col_of<T>(a, j);
        T* oc = o + j * num_groups;
        for (std::size_t i = 0; i < rows; ++i) {
          const std::int64_t g = lab[i];
          if (g >= 0 && static_cast<std::size_t>(g) < num_groups)
            oc[g] = agg_step<OP>(oc[g], ac[i]);
        }
      }
    });
  });
}

void count_groups_acc(view labels_i64, std::size_t rows,
                      std::size_t num_groups, std::int64_t* counts) {
  const std::int64_t* lab =
      reinterpret_cast<const std::int64_t*>(labels_i64.data);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::int64_t g = lab[i];
    if (g >= 0 && static_cast<std::size_t>(g) < num_groups) ++counts[g];
  }
}

#if FLASHR_KERN_LEVEL == 0
void agg_identity(scalar_type t, agg_id op, char* out, std::size_t n) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* o = reinterpret_cast<T*>(out);
      std::fill(o, o + n, agg_identity_of<OP, T>());
    });
  });
}

void agg_merge(scalar_type t, agg_id op, char* into, const char* from,
               std::size_t n) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      T* a = reinterpret_cast<T*>(into);
      const T* b = reinterpret_cast<const T*>(from);
      for (std::size_t i = 0; i < n; ++i) a[i] = agg_combine<OP>(a[i], b[i]);
    });
  });
}

void agg_finish(scalar_type t, agg_id op, const char* acc, std::size_t n,
                char* out) {
  dispatch_type(t, [&]<typename T>() {
    dispatch_agg(op, [&]<agg_id OP>() {
      const T* a = reinterpret_cast<const T*>(acc);
      T v = agg_identity_of<OP, T>();
      for (std::size_t i = 0; i < n; ++i) v = agg_combine<OP>(v, a[i]);
      *reinterpret_cast<T*>(out) = v;
    });
  });
}
#endif

}  // namespace

#undef KERN_FOLD

/// This level's kernels.
constexpr level_kernels kernels = {
    sapply,      map2,    map_scalar,  sweep_rowvec, inner_prod,
    agg_row,     cum_col, cum_row,     groupby_col,  cast,
    copy,        agg_col_acc, tmm_acc, groupby_row_acc, count_groups_acc};

#endif  // FLASHR_KERN_LEVEL
