// Exhaustive GenOp element-function sweeps: every uop/bop/agg id is checked
// against a scalar host reference, for double and int64 elements, in memory
// and out of core. Each (op, type, storage) triple exercises a distinct
// kernel instantiation after the template-dispatch rework, so this is the
// suite that would catch a miscompiled or mis-dispatched kernel.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/dense_matrix.h"

namespace flashr {
namespace {

double host_uop(uop_id op, double x) {
  switch (op) {
    case uop_id::neg: return -x;
    case uop_id::abs_v: return std::abs(x);
    case uop_id::sqrt_v: return std::sqrt(x);
    case uop_id::exp_v: return std::exp(x);
    case uop_id::log_v: return std::log(x);
    case uop_id::log1p_v: return std::log1p(x);
    case uop_id::sigmoid:  // overflow-free for x < 0
      return x < 0 ? std::exp(x) / (1.0 + std::exp(x))
                   : 1.0 / (1.0 + std::exp(-x));
    case uop_id::square: return x * x;
    case uop_id::inv: return 1.0 / x;
    case uop_id::floor_v: return std::floor(x);
    case uop_id::ceil_v: return std::ceil(x);
    case uop_id::sign: return x > 0 ? 1 : (x < 0 ? -1 : 0);
    case uop_id::not_v: return x == 0 ? 1 : 0;
  }
  return x;
}

double host_bop(bop_id op, double x, double y, bool integer) {
  switch (op) {
    case bop_id::add: return x + y;
    case bop_id::sub: return x - y;
    case bop_id::mul: return x * y;
    case bop_id::div:
      return integer ? std::trunc(x / y) : x / y;
    case bop_id::mod:
      return integer ? static_cast<double>(static_cast<long long>(x) %
                                           static_cast<long long>(y))
                     : std::fmod(x, y);
    case bop_id::pow_v: {
      const double v = std::pow(x, y);
      return integer ? std::trunc(v) : v;
    }
    case bop_id::min_v: return std::min(x, y);
    case bop_id::max_v: return std::max(x, y);
    case bop_id::eq: return x == y ? 1 : 0;
    case bop_id::ne: return x != y ? 1 : 0;
    case bop_id::lt: return x < y ? 1 : 0;
    case bop_id::le: return x <= y ? 1 : 0;
    case bop_id::gt: return x > y ? 1 : 0;
    case bop_id::ge: return x >= y ? 1 : 0;
    case bop_id::and_v: return (x != 0 && y != 0) ? 1 : 0;
    case bop_id::or_v: return (x != 0 || y != 0) ? 1 : 0;
    case bop_id::sqdiff: return (x - y) * (x - y);
  }
  return x;
}

struct sweep_param {
  scalar_type type;
  storage st;
};

std::string sweep_name(const ::testing::TestParamInfo<sweep_param>& i) {
  return std::string(type_name(i.param.type)) +
         (i.param.st == storage::in_mem ? "_im" : "_em");
}

class OpSweepTest : public ::testing::TestWithParam<sweep_param> {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.pcache_bytes = 1024;
    o.small_nrow_threshold = 16;
    o.num_threads = 3;
    init(o);
  }

  static constexpr std::size_t kN = 333;  // several partitions + ragged tail
  static constexpr std::size_t kP = 3;

  bool integer() const { return !is_floating(GetParam().type); }

  /// Strictly positive data (safe for log/sqrt/div/mod); integers in [1, 9].
  smat host_data(std::uint64_t seed) const {
    smat h(kN, kP);
    rng64 rng(seed);
    for (std::size_t j = 0; j < kP; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        h(i, j) = integer()
                      ? static_cast<double>(1 + rng.next_below(9))
                      : 0.1 + 3.0 * rng.next_uniform();
    return h;
  }

  dense_matrix place(const smat& h) const {
    return conv_store(dense_matrix::from_smat(h, GetParam().type),
                      GetParam().st);
  }

  double tol() const {
    if (integer()) return 0.0;
    return GetParam().type == scalar_type::f32 ? 2e-4 : 1e-9;
  }
  /// Relative tolerance for accumulating computations.
  double rel() const {
    return GetParam().type == scalar_type::f32 ? 1e-3 : 1e-7;
  }
};

TEST_P(OpSweepTest, EveryUnaryOpMatchesHost) {
  const smat h = host_data(1);
  const dense_matrix m = place(h);
  for (uop_id op :
       {uop_id::neg, uop_id::abs_v, uop_id::sqrt_v, uop_id::exp_v,
        uop_id::log_v, uop_id::log1p_v, uop_id::sigmoid, uop_id::square,
        uop_id::inv, uop_id::floor_v, uop_id::ceil_v, uop_id::sign,
        uop_id::not_v}) {
    smat got = sapply(m, op).to_smat();
    for (std::size_t j = 0; j < kP; ++j)
      for (std::size_t i = 0; i < kN; ++i) {
        double expect = host_uop(op, h(i, j));
        if (integer()) expect = std::trunc(expect);
        ASSERT_NEAR(got(i, j), expect, tol())
            << uop_name(op) << " at (" << i << "," << j << ")";
      }
  }
}

/// Inputs for TranscendentalSpecialValues. Floating types get the values
/// the vector kernels hand to libm (NaN, infinities, zeros, subnormals, the
/// domain edges, the overflow thresholds) next to ordinary ones; integer
/// types get integers whose results narrow back to the type.
std::vector<double> transcendental_inputs(uop_id op, scalar_type t) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (t) {
    case scalar_type::f64:
      return {0.0,      -0.0,     -1.0,   -2.0,    inf,    -inf,
              nan,      4.9e-324, -4.9e-324, 0x1p-1022, DBL_MAX, -DBL_MAX,
              708.0,    -708.0,   707.99, -707.99, 709.5,  -709.5,
              -745.0,   -740.0,   710.0,  -1.0 + 0x1p-52, 0.5, -0.5,
              3.25,     -3.25,    1e-300, 1e300};
    case scalar_type::f32:
      return {0.0,    -0.0,    -1.0,   -2.0,    inf,     -inf,
              nan,    0x1p-149, -0x1p-149, 0x1p-126, FLT_MAX, -FLT_MAX,
              88.0,   -88.0,   89.0,   -104.0,  708.0,   -708.0,
              -745.0, -1.0 + 0x1p-23, 0.5, -0.5,   3.25,    1e-30};
    default:
      switch (op) {
        case uop_id::exp_v: return {-800, -745, -708, -2, -1, 0, 1, 2, 20};
        case uop_id::log_v: return {1, 2, 3, 1000, 1 << 30};
        case uop_id::log1p_v: return {0, 1, 2, 1000, 1 << 30};
        default: return {-800, -708, -2, -1, 0, 1, 2, 708, 800};
      }
  }
}

// exp, log, log1p and sigmoid on the values their fast vector path does
// not cover, scattered through every partition and mixed with ordinary
// ones: NaN, infinities and signed zeros must come back exactly as libm
// gives them, everything else within a couple of ulps of the type.
TEST_P(OpSweepTest, TranscendentalSpecialValues) {
  const scalar_type t = GetParam().type;
  const double rel = integer() ? 0.0
                     : t == scalar_type::f32 ? 2 * FLT_EPSILON
                                             : 2 * DBL_EPSILON;
  for (uop_id op : {uop_id::exp_v, uop_id::log_v, uop_id::log1p_v,
                    uop_id::sigmoid}) {
    const std::vector<double> vals = transcendental_inputs(op, t);
    smat h(kN, kP);
    rng64 rng(7);
    for (std::size_t j = 0; j < kP; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        h(i, j) = (i + j) % 2 == 0 ? vals[(i / 2 + j) % vals.size()]
                  : integer() ? static_cast<double>(1 + rng.next_below(9))
                              : 0.1 + 3.0 * rng.next_uniform();
    const dense_matrix m = place(h);
    const smat x = m.to_smat();  // the inputs as the type holds them
    const smat got = sapply(m, op).to_smat();
    for (std::size_t j = 0; j < kP; ++j)
      for (std::size_t i = 0; i < kN; ++i) {
        double want = host_uop(op, x(i, j));
        if (integer()) want = std::trunc(want);
        if (t == scalar_type::f32) want = static_cast<float>(want);
        const std::string at = std::string(uop_name(op)) + "(" +
                               std::to_string(x(i, j)) + ") at (" +
                               std::to_string(i) + "," + std::to_string(j) +
                               ")";
        const double g = got(i, j);
        if (std::isnan(want)) {
          ASSERT_TRUE(std::isnan(g)) << at << " = " << g;
        } else if (std::isinf(want) || want == 0.0) {
          ASSERT_EQ(g, want) << at;
          ASSERT_EQ(std::signbit(g), std::signbit(want)) << at;
        } else {
          ASSERT_LE(std::fabs(g - want), rel * std::fabs(want))
              << at << " = " << g << ", libm " << want;
        }
      }
  }
}

TEST_P(OpSweepTest, EveryBinaryOpMatchesHost) {
  const smat ha = host_data(2), hb = host_data(3);
  const dense_matrix a = place(ha), b = place(hb);
  for (bop_id op :
       {bop_id::add, bop_id::sub, bop_id::mul, bop_id::div, bop_id::mod,
        bop_id::pow_v, bop_id::min_v, bop_id::max_v, bop_id::eq, bop_id::ne,
        bop_id::lt, bop_id::le, bop_id::gt, bop_id::ge, bop_id::and_v,
        bop_id::or_v, bop_id::sqdiff}) {
    smat got = mapply2(a, b, op).to_smat();
    for (std::size_t j = 0; j < kP; ++j)
      for (std::size_t i = 0; i < kN; ++i) {
        const double expect = host_bop(op, ha(i, j), hb(i, j), integer());
        ASSERT_NEAR(got(i, j), expect, rel() * std::abs(expect) + tol())
            << bop_name(op) << " at (" << i << "," << j << ")";
      }
  }
}

TEST_P(OpSweepTest, EveryBinaryOpWithScalarMatchesHost) {
  const smat ha = host_data(4);
  const dense_matrix a = place(ha);
  const double c = integer() ? 3.0 : 1.7;
  for (bop_id op : {bop_id::add, bop_id::sub, bop_id::mul, bop_id::div,
                    bop_id::min_v, bop_id::max_v, bop_id::lt, bop_id::ge,
                    bop_id::sqdiff}) {
    smat right = mapply2(a, c, op).to_smat();
    smat left = mapply2(c, a, op).to_smat();
    for (std::size_t j = 0; j < kP; ++j)
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_NEAR(right(i, j), host_bop(op, ha(i, j), c, integer()),
                    tol())
            << bop_name(op);
        ASSERT_NEAR(left(i, j), host_bop(op, c, ha(i, j), integer()), tol())
            << bop_name(op) << " (scalar left)";
      }
  }
}

TEST_P(OpSweepTest, EveryAggOpMatchesHost) {
  const smat h = host_data(5);
  const dense_matrix m = place(h);
  for (agg_id op : {agg_id::sum, agg_id::min_v, agg_id::max_v,
                    agg_id::count_nonzero, agg_id::any_v, agg_id::all_v}) {
    double expect;
    switch (op) {
      case agg_id::sum: {
        expect = 0;
        for (std::size_t i = 0; i < h.size(); ++i) expect += h.data()[i];
        break;
      }
      case agg_id::min_v:
        expect = *std::min_element(h.data(), h.data() + h.size());
        break;
      case agg_id::max_v:
        expect = *std::max_element(h.data(), h.data() + h.size());
        break;
      case agg_id::count_nonzero: {
        expect = 0;
        for (std::size_t i = 0; i < h.size(); ++i)
          expect += h.data()[i] != 0 ? 1 : 0;
        break;
      }
      case agg_id::any_v:
        expect = 1;  // data strictly positive
        break;
      default:
        expect = 1;  // all_v on strictly positive data
        break;
    }
    EXPECT_NEAR(agg(m, op).scalar(), expect, rel() * std::abs(expect) + tol())
        << agg_name(op);
  }
}

TEST_P(OpSweepTest, AggRowAndColForEveryOp) {
  const smat h = host_data(6);
  const dense_matrix m = place(h);
  for (agg_id op : {agg_id::sum, agg_id::min_v, agg_id::max_v,
                    agg_id::count_nonzero}) {
    smat rows = agg_row(m, op).to_smat();
    smat cols = agg_col(m, op).to_smat();
    for (std::size_t i = 0; i < kN; ++i) {
      double e = op == agg_id::sum || op == agg_id::count_nonzero
                     ? 0.0
                     : h(i, 0);
      for (std::size_t j = 0; j < kP; ++j) {
        switch (op) {
          case agg_id::sum: e += h(i, j); break;
          case agg_id::count_nonzero: e += h(i, j) != 0; break;
          case agg_id::min_v: e = std::min(e, h(i, j)); break;
          default: e = std::max(e, h(i, j)); break;
        }
      }
      ASSERT_NEAR(rows(i, 0), e, rel() * std::abs(e) + 1e-8 + tol())
          << agg_name(op) << " row " << i;
    }
    for (std::size_t j = 0; j < kP; ++j) {
      double e = op == agg_id::sum || op == agg_id::count_nonzero
                     ? 0.0
                     : h(0, j);
      for (std::size_t i = 0; i < kN; ++i) {
        switch (op) {
          case agg_id::sum: e += h(i, j); break;
          case agg_id::count_nonzero: e += h(i, j) != 0; break;
          case agg_id::min_v: e = std::min(e, h(i, j)); break;
          default: e = std::max(e, h(i, j)); break;
        }
      }
      ASSERT_NEAR(cols(0, j), e, rel() * std::abs(e) + 1e-7 + tol())
          << agg_name(op) << " col " << j;
    }
  }
}

TEST_P(OpSweepTest, GroupbyMinMaxAndProd) {
  const smat h = host_data(7);
  const dense_matrix m = place(h);
  smat labh(kN, 1);
  for (std::size_t i = 0; i < kN; ++i)
    labh(i, 0) = static_cast<double>(i % 4);
  dense_matrix labels =
      conv_store(dense_matrix::from_smat(labh, scalar_type::i64),
                 GetParam().st);
  for (agg_id op : {agg_id::min_v, agg_id::max_v}) {
    smat got = groupby_row(m, labels, 4, op).to_smat();
    for (std::size_t g = 0; g < 4; ++g)
      for (std::size_t j = 0; j < kP; ++j) {
        double e = op == agg_id::min_v ? 1e300 : -1e300;
        for (std::size_t i = g; i < kN; i += 4)
          e = op == agg_id::min_v ? std::min(e, h(i, j))
                                  : std::max(e, h(i, j));
        ASSERT_NEAR(got(g, j), e, tol()) << agg_name(op);
      }
  }
}

TEST_P(OpSweepTest, CumOpsForSeveralFunctions) {
  const smat h = host_data(8);
  const dense_matrix m = place(h);
  for (bop_id op : {bop_id::add, bop_id::mul, bop_id::min_v, bop_id::max_v}) {
    if (op == bop_id::mul && !integer()) continue;  // products overflow fp ulp
    if (op == bop_id::mul && integer()) continue;   // and integers wrap
    smat got = cum_col(m, op).to_smat();
    for (std::size_t j = 0; j < kP; ++j) {
      double run = h(0, j);
      ASSERT_NEAR(got(0, j), run, tol());
      for (std::size_t i = 1; i < kN; ++i) {
        run = host_bop(op, run, h(i, j), integer());
        ASSERT_NEAR(got(i, j), run, rel() * std::abs(run) + tol())
            << bop_name(op) << " at " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndStorage, OpSweepTest,
    ::testing::Values(sweep_param{scalar_type::f64, storage::in_mem},
                      sweep_param{scalar_type::f64, storage::ext_mem},
                      sweep_param{scalar_type::i64, storage::in_mem},
                      sweep_param{scalar_type::i64, storage::ext_mem},
                      sweep_param{scalar_type::f32, storage::in_mem},
                      sweep_param{scalar_type::i32, storage::in_mem}),
    sweep_name);

}  // namespace
}  // namespace flashr
