// Compiled with -ffp-contract=off -fno-trapping-math (src/CMakeLists.txt).
// The first keeps every variant to separately rounded multiplies and adds,
// which is what makes their bits agree; the second lets the compiler
// if-convert the selects below so every variant vectorizes.
#include "core/vmath.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace flashr::vmath {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define VMATH_INLINE inline __attribute__((always_inline))
#else
#define VMATH_INLINE inline
#endif

using u64 = std::uint64_t;

VMATH_INLINE double as_f64(u64 b) { return std::bit_cast<double>(b); }
VMATH_INLINE u64 as_u64(double d) { return std::bit_cast<u64>(d); }

// Adding kShift to |v| < 2^51 rounds v to an integer held in the low bits
// of the sum's mantissa.
constexpr double kShift = 0x1.8p52;
constexpr double kInvLn2 = 0x1.71547652b82fep0;
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 32 significant bits, so k * kLn2Hi is
// exact for |k| < 2^21 (fdlibm).
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// ---- exp core -------------------------------------------------------------

/// exp(a) = (s + tail) * scale for |a| < 708, with s + tail in
/// [0.70, 1.42] and scale = 2^k an exact power of two.
struct exp_parts {
  double s, tail, scale;
};

VMATH_INLINE exp_parts exp_core(double a) {
  const double t = a * kInvLn2 + kShift;
  const double kd = t - kShift;              // k = round(a / ln 2)
  const u64 ki = as_u64(t) - as_u64(kShift);  // the same k, two's complement
  const double hi = a - kd * kLn2Hi;         // exact
  const double lo = kd * kLn2Lo;
  const double r = hi - lo;                  // |r| <= ln2 / 2
  // q = exp(r) - 1 - r: Taylor terms r^2/2! .. r^14/14!; the first one
  // left out, r^15/15!, is below 2^-63 for |r| <= ln2 / 2.
  double p = 1.0 / 87178291200.0;
  p = p * r + 1.0 / 6227020800.0;
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  const double q = (r * r) * p;
  // exp(r) = 1 + hi - lo + q, summed so that only the final add rounds at
  // the result's precision: s + e == 1 + hi exactly (Fast2Sum, |hi| < 1).
  const double s = 1.0 + hi;
  const double e = (1.0 - s) + hi;
  return {s, (e - lo) + q, as_f64((ki + 1023) << 52)};
}

VMATH_INLINE double exp_fast(double x) {
  const exp_parts z = exp_core(x);
  return (z.s + z.tail) * z.scale;
}

/// Keeps a double's top 26 significant bits. The product of two such
/// values has at most 52 bits, so it is exact without a fused multiply-add.
constexpr u64 kHigh26 = ~((u64{1} << 27) - 1);

/// 1 / (1 + exp(-x)) for |x| < 708. With z = exp(-|x|) as a double-double,
/// the result is n / d with d = 1 + z, and n = 1 for x >= 0, n = z for
/// x < 0. q, the quotient cut to 26 bits, times the 26-bit head of d is
/// exact, so the remainder n - q * d loses only terms 2^-25 smaller than
/// itself; adding rem / d to q rounds the result once.
VMATH_INLINE double sigmoid_fast(double x) {
  const exp_parts z = exp_core(-std::fabs(x));
  const double zh_u = z.s + z.tail;  // exp(-|x|) / scale, as zh_u + zl_u
  const double zl_u = z.tail - (zh_u - z.s);
  const double zh = zh_u * z.scale;
  const double zl = zl_u * z.scale;
  const double dh = 1.0 + zh;  // d = 1 + z = dh + dl
  const double dl = ((1.0 - dh) + zh) + zl;
  const bool neg = x < 0.0;
  const double nh = neg ? zh_u : 1.0;  // numerator, unscaled
  const double nl = neg ? zl_u : 0.0;
  const double out_scale = neg ? z.scale : 1.0;
  const double inv = 1.0 / dh;
  const double dh26 = as_f64(as_u64(dh) & kHigh26);
  const double dl26 = (dh - dh26) + dl;
  const double q = as_f64(as_u64(nh * inv) & kHigh26);
  const double rem = ((nh - q * dh26) + nl) - q * dl26;
  return (q + rem * inv) * out_scale;
}

// ---- log and log1p (fdlibm's reduction, musl's branch-free form) ---------

constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

// Adding kNormOff to a double's bits moves the exponent boundary from 1 to
// sqrt(2)/2, so the mantissa reduces into [sqrt(2)/2, sqrt(2)).
constexpr u64 kNormOff = u64{0x3ff00000 - 0x3fe6a09e} << 32;
constexpr u64 kNormBase = u64{0x3fe6a09e} << 32;
constexpr u64 kMantMask = (u64{1} << 52) - 1;

/// u = 2^k * m with m in [sqrt(2)/2, sqrt(2)), for normal u > 0.
struct log_split {
  double kd, m;
};

VMATH_INLINE log_split log_reduce(double u) {
  const u64 iu = as_u64(u) + kNormOff;
  // k + 1023 = iu >> 52, turned into a double through kShift.
  const double kd = as_f64(as_u64(kShift) + (iu >> 52)) - (kShift + 1023.0);
  return {kd, as_f64((iu & kMantMask) + kNormBase)};
}

/// R(s^2) in log(1 + f) = f - f^2/2 + s * (f^2/2 + R), s = f / (2 + f).
VMATH_INLINE double log_poly(double s) {
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  return t2 + t1;
}

VMATH_INLINE double log_fast(double x) {
  const log_split r = log_reduce(x);
  const double f = r.m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  return s * (hfsq + log_poly(s)) + r.kd * kLn2Lo - hfsq + f + r.kd * kLn2Hi;
}

VMATH_INLINE double log1p_fast(double x) {
  // For sqrt(2)/2 <= 1 + x < sqrt(2), reduce nothing: f = x exactly.
  const bool near0 = x > -0.29289321881345254 && x < 0.41421356237309503;
  const double u = 1.0 + x;
  const log_split r = log_reduce(u);
  // c = (1 + x - u) / u corrects for the rounding of 1 + x (Fast2Sum with
  // the larger operand first).
  const double c = (x >= 1.0 ? 1.0 - (u - x) : x - (u - 1.0)) / u;
  const double f = near0 ? x : r.m - 1.0;
  const double kd = near0 ? 0.0 : r.kd;
  const double cc = near0 ? 0.0 : c;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  return s * (hfsq + log_poly(s)) + (kd * kLn2Lo + cc) - hfsq + f +
         kd * kLn2Hi;
}

// ---- per-function fast range, substitute and libm fallback ---------------

constexpr u64 kTop = u64{1} << 63;
constexpr u64 kAbsMask = kTop - 1;

/// Integer-only test whose top bit is set iff x lies outside F's fast range,
/// so the lane's result comes from libm: NaN and infinities for all four,
/// |x| >= 708 for exp and sigmoid, x <= 0 and subnormals for log, x <= -1
/// and both zeros for log1p (-0 keeps its sign only through libm). Written
/// as unsigned "v >= limit" tests, v | (v + (2^63 - limit)), because 64-bit
/// compares and mask-to-integer conversions do not vectorize on SSE2.
template <fn F>
VMATH_INLINE u64 slow_bit(double x) {
  const u64 b = as_u64(x);
  if constexpr (F == fn::exp || F == fn::sigmoid) {
    return (b & kAbsMask) + (kTop - as_u64(708.0));
  } else if constexpr (F == fn::log) {
    const u64 v = b - as_u64(DBL_MIN);
    return v | (v + (kTop - (as_u64(INFINITY) - as_u64(DBL_MIN))));
  } else {
    // Fast: 0 < |x| < 1 for negative x, 0 < x < inf for positive x.
    const u64 v = (b & kAbsMask) - 1;
    const u64 neg = 0 - (b >> 63);
    const u64 limit = (as_u64(INFINITY) - 1) -
                      (neg & (as_u64(INFINITY) - as_u64(1.0)));
    return v | (v + (kTop - limit));
  }
}

template <fn F>
VMATH_INLINE double eval_fast(double x) {
  if constexpr (F == fn::exp) return exp_fast(x);
  if constexpr (F == fn::log) return log_fast(x);
  if constexpr (F == fn::log1p) return log1p_fast(x);
  if constexpr (F == fn::sigmoid) return sigmoid_fast(x);
}

template <fn F>
double eval_libm(double x) {
  if constexpr (F == fn::exp) return std::exp(x);
  if constexpr (F == fn::log) return std::log(x);
  if constexpr (F == fn::log1p) return std::log1p(x);
  // The overflow-free form: exp(x) for x <= -708 is not lost to 1 / inf.
  if constexpr (F == fn::sigmoid)
    return x < 0.0 ? std::exp(x) / (1.0 + std::exp(x))
                   : 1.0 / (1.0 + std::exp(-x));
}

/// The second pass: recompute the lanes outside the fast range with libm.
template <fn F>
[[gnu::noinline]] void fixup(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (slow_bit<F>(x[i]) >> 63) y[i] = eval_libm<F>(x[i]);
}

// A block stays in L1 between the vector pass and the fixup pass.
constexpr std::size_t kBlock = 512;

template <fn F>
VMATH_INLINE void run(const double* __restrict x, double* __restrict y,
                      std::size_t n) {
  for (std::size_t off = 0; off < n; off += kBlock) {
    const std::size_t m = std::min(kBlock, n - off);
    const double* xb = x + off;
    double* yb = y + off;
    u64 slow = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const u64 sb = slow_bit<F>(xb[i]);
      slow |= sb;
      // A slow lane runs on 0.5, which every function takes on its fast
      // path, and is overwritten by the fixup pass.
      const u64 sub = 0 - (sb >> 63);
      const double arg = as_f64((as_u64(xb[i]) & ~sub) | (as_u64(0.5) & sub));
      yb[i] = eval_fast<F>(arg);
    }
    if (slow >> 63) fixup<F>(xb, yb, m);
  }
}

VMATH_INLINE void dispatch(fn f, const double* x, double* y, std::size_t n) {
  switch (f) {
    case fn::exp: run<fn::exp>(x, y, n); return;
    case fn::log: run<fn::log>(x, y, n); return;
    case fn::log1p: run<fn::log1p>(x, y, n); return;
    case fn::sigmoid: run<fn::sigmoid>(x, y, n); return;
  }
}

// One entry point per variant. Everything above is always_inline, so each
// variant compiles the element code for its own target.
void run_baseline(fn f, const double* x, double* y, std::size_t n) {
  dispatch(f, x, y, n);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLASHR_VMATH_X86 1
__attribute__((target("arch=x86-64-v3")))
void run_v3(fn f, const double* x, double* y, std::size_t n) {
  dispatch(f, x, y, n);
}

__attribute__((target("arch=x86-64-v4")))
void run_v4(fn f, const double* x, double* y, std::size_t n) {
  dispatch(f, x, y, n);
}
#endif

using kernel_fn = void (*)(fn, const double*, double*, std::size_t);

kernel_fn kernel_of(isa v) {
#ifdef FLASHR_VMATH_X86
  if (v == isa::x86_64_v4) return run_v4;
  if (v == isa::x86_64_v3) return run_v3;
#endif
  (void)v;
  return run_baseline;
}

}  // namespace

bool isa_supported(isa v) {
  if (v == isa::baseline) return true;
#ifdef FLASHR_VMATH_X86
  __builtin_cpu_init();
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
  if (v == isa::x86_64_v3) return __builtin_cpu_supports("x86-64-v3");
  return __builtin_cpu_supports("x86-64-v4");
#else
  const bool v3 = __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma") &&
                  __builtin_cpu_supports("bmi") &&
                  __builtin_cpu_supports("bmi2");
  if (v == isa::x86_64_v3) return v3;
  return v3 && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#endif
#else
  return false;
#endif
}

const char* isa_name(isa v) {
  switch (v) {
    case isa::baseline: return "baseline";
    case isa::x86_64_v3: return "x86-64-v3";
    case isa::x86_64_v4: return "x86-64-v4";
  }
  return "?";
}

isa active_isa() {
  static const isa chosen = isa_supported(isa::x86_64_v4) ? isa::x86_64_v4
                            : isa_supported(isa::x86_64_v3) ? isa::x86_64_v3
                                                            : isa::baseline;
  return chosen;
}

void apply(fn f, const double* x, double* y, std::size_t n) {
  static const kernel_fn kernel = kernel_of(active_isa());
  kernel(f, x, y, n);
}

void apply(isa v, fn f, const double* x, double* y, std::size_t n) {
  FLASHR_ASSERT(isa_supported(v), "vmath::apply: variant not supported here");
  kernel_of(v)(f, x, y, n);
}

}  // namespace flashr::vmath
