// Vectorized f64 exp, log, log1p and sigmoid for the sapply chunk kernel.
//
// Each function is a branch-free range reduction plus polynomial
// (fdlibm/musl for log and log1p, a double-double Taylor core for exp and
// sigmoid) written with IEEE add/mul/div and integer bit operations only,
// within 1 ulp. vmath.cpp is compiled with -ffp-contract=off, so no variant
// fuses a multiply-add: an element's bits depend on its value alone, not on
// the chunk it sits in, its offset, or the instruction set that ran it.
//
// Lanes outside a function's fast range (NaN, infinities, zeros where the
// sign matters, the domain edges, overflow and underflow) are computed on a
// safe substitute in the vector pass and then recomputed with libm in a
// second pass over the block, so they match libm exactly.
#pragma once

#include <cstddef>

namespace flashr::vmath {

enum class fn : unsigned char {
  exp,
  log,
  log1p,
  sigmoid,  ///< 1 / (1 + exp(-x))
};

/// The instruction-set levels vmath.cpp is compiled for. All of them give
/// the same bits; they differ only in vector width.
enum class isa : unsigned char {
  baseline,   ///< the build's own target (SSE2 on x86-64)
  x86_64_v3,  ///< AVX2
  x86_64_v4,  ///< AVX-512
};

const char* isa_name(isa v);
bool isa_supported(isa v);
/// The widest variant this CPU supports, chosen on first use.
isa active_isa();

/// y[i] = f(x[i]) for i < n on the active variant. x and y must not overlap.
void apply(fn f, const double* x, double* y, std::size_t n);

/// The same on variant `v`, which must be supported (tests and benchmarks).
void apply(isa v, fn f, const double* x, double* y, std::size_t n);

}  // namespace flashr::vmath
