// Engine tests: GenOps, lazy evaluation, DAG materialization.
//
// The central property (DESIGN.md invariant 1) is differential: every
// operation must produce identical results under all exec modes (eager,
// mem-fuse, cache-fuse) and both storages (RAM, SSDs), for inputs that span
// multiple I/O partitions and ragged final partitions. The parameterized
// fixture sweeps that matrix of configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/config.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/safs.h"
#include "matrix/generated_store.h"

namespace flashr {
namespace {

struct engine_param {
  exec_mode mode;
  storage st;
};

std::string param_name(const ::testing::TestParamInfo<engine_param>& info) {
  std::string s = exec_mode_name(info.param.mode);
  for (auto& c : s)
    if (c == '-') c = '_';
  return s + (info.param.st == storage::ext_mem ? "_em" : "_im");
}

class EngineTest : public ::testing::TestWithParam<engine_param> {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = 64;        // force many partitions at small n
    o.pcache_bytes = 2048;      // force several Pcache chunks per partition
    o.small_nrow_threshold = 16;
    o.mode = GetParam().mode;
    o.prefetch_depth = 8;
    init(o);
  }

  storage st() const { return GetParam().st; }

  /// Test input: n x p matrix with a deterministic pattern including
  /// negatives and non-integers, placed in the parameterized storage.
  dense_matrix make_input(std::size_t n, std::size_t p,
                          double scale = 1.0) const {
    smat h(n, p);
    for (std::size_t j = 0; j < p; ++j)
      for (std::size_t i = 0; i < n; ++i)
        h(i, j) = scale * (std::sin(static_cast<double>(i * p + j)) +
                           0.25 * static_cast<double>(j) -
                           0.001 * static_cast<double>(i));
    dense_matrix m = dense_matrix::from_smat(h);
    return st() == storage::ext_mem ? conv_store(m, storage::ext_mem) : m;
  }

  smat host_of(const dense_matrix& m) const { return m.to_smat(); }
};

constexpr std::size_t kN = 1000;  // ~16 partitions of 64 rows + ragged tail
constexpr std::size_t kP = 7;

TEST_P(EngineTest, SapplyMatchesHost) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat got = flashr::sqrt(abs(x)).to_smat();
  for (std::size_t j = 0; j < kP; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_NEAR(got(i, j), std::sqrt(std::abs(h(i, j))), 1e-12);
}

TEST_P(EngineTest, MapplyAddSubMulDiv) {
  dense_matrix x = make_input(kN, kP), y = make_input(kN, kP, 0.5);
  smat hx = host_of(x), hy = host_of(y);
  smat add = (x + y).to_smat(), sub = (x - y).to_smat(),
       mul = (x * y).to_smat(), div = (x / (y + 10.0)).to_smat();
  for (std::size_t j = 0; j < kP; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_NEAR(add(i, j), hx(i, j) + hy(i, j), 1e-12);
      EXPECT_NEAR(sub(i, j), hx(i, j) - hy(i, j), 1e-12);
      EXPECT_NEAR(mul(i, j), hx(i, j) * hy(i, j), 1e-12);
      EXPECT_NEAR(div(i, j), hx(i, j) / (hy(i, j) + 10.0), 1e-12);
    }
}

TEST_P(EngineTest, ScalarOpsBothSides) {
  dense_matrix x = make_input(kN, 3);
  smat h = host_of(x);
  smat a = (x * 2.0 + 1.0).to_smat();
  smat b = (10.0 - x).to_smat();
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_NEAR(a(i, j), h(i, j) * 2 + 1, 1e-12);
      EXPECT_NEAR(b(i, j), 10.0 - h(i, j), 1e-12);
    }
}

TEST_P(EngineTest, ColumnBroadcast) {
  dense_matrix x = make_input(kN, kP);
  dense_matrix v = make_input(kN, 1);
  smat hx = host_of(x), hv = host_of(v);
  smat got = (x * v).to_smat();  // n x 1 recycled across columns
  for (std::size_t j = 0; j < kP; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_NEAR(got(i, j), hx(i, j) * hv(i, 0), 1e-12);
}

TEST_P(EngineTest, FusedChainSingleMaterialization) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  // A deep chain: ((x^2 + 1) * 0.5 - x).abs().sqrt()
  dense_matrix z = flashr::sqrt(abs((square(x) + 1.0) * 0.5 - x));
  smat got = z.to_smat();
  for (std::size_t j = 0; j < kP; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      const double e =
          std::sqrt(std::abs((h(i, j) * h(i, j) + 1) * 0.5 - h(i, j)));
      EXPECT_NEAR(got(i, j), e, 1e-12);
    }
}

TEST_P(EngineTest, SharedSubexpressionDiamond) {
  dense_matrix x = make_input(kN, 4);
  smat h = host_of(x);
  dense_matrix c = square(x);     // shared by two consumers
  dense_matrix z = c + c * 2.0;   // diamond DAG
  smat got = z.to_smat();
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_NEAR(got(i, j), 3 * h(i, j) * h(i, j), 1e-12);
}

TEST_P(EngineTest, AggFullSumMinMax) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  double esum = 0, emin = 1e300, emax = -1e300;
  for (std::size_t j = 0; j < kP; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      esum += h(i, j);
      emin = std::min(emin, h(i, j));
      emax = std::max(emax, h(i, j));
    }
  EXPECT_NEAR(sum(x).scalar(), esum, 1e-8);
  EXPECT_NEAR(flashr::min(x).scalar(), emin, 1e-12);
  EXPECT_NEAR(flashr::max(x).scalar(), emax, 1e-12);
}

TEST_P(EngineTest, AggAnyAllCount) {
  dense_matrix pos = gt(make_input(kN, 2), make_input(kN, 2, 2.0));
  smat h = pos.to_smat();
  double nnz = 0;
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < kN; ++i) nnz += h(i, j) != 0 ? 1 : 0;
  EXPECT_NEAR(agg(pos, agg_id::count_nonzero).scalar(), nnz, 0);
  EXPECT_EQ(any(pos).scalar(), nnz > 0 ? 1 : 0);
  EXPECT_EQ(all(pos).scalar(), nnz == 2 * kN ? 1 : 0);
}

TEST_P(EngineTest, RowAndColSums) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat rs = row_sums(x).to_smat();
  smat cs = col_sums(x).to_smat();
  ASSERT_EQ(rs.nrow(), kN);
  ASSERT_EQ(cs.ncol(), kP);
  for (std::size_t i = 0; i < kN; ++i) {
    double e = 0;
    for (std::size_t j = 0; j < kP; ++j) e += h(i, j);
    EXPECT_NEAR(rs(i, 0), e, 1e-10);
  }
  for (std::size_t j = 0; j < kP; ++j) {
    double e = 0;
    for (std::size_t i = 0; i < kN; ++i) e += h(i, j);
    EXPECT_NEAR(cs(0, j), e, 1e-8);
  }
}

TEST_P(EngineTest, AggRowMinAndWhichMin) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat rmin = agg_row(x, agg_id::min_v).to_smat();
  smat amin = which_min_row(x).to_smat();
  for (std::size_t i = 0; i < kN; ++i) {
    double e = h(i, 0);
    std::size_t arg = 0;
    for (std::size_t j = 1; j < kP; ++j)
      if (h(i, j) < e) {
        e = h(i, j);
        arg = j;
      }
    EXPECT_NEAR(rmin(i, 0), e, 1e-12);
    EXPECT_EQ(amin(i, 0), static_cast<double>(arg));
  }
}

TEST_P(EngineTest, SweepColsSubtractMeans) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat mu = col_means(x).to_smat();
  dense_matrix centered = sweep_cols(x, mu, bop_id::sub);
  smat cs = col_sums(centered).to_smat();
  for (std::size_t j = 0; j < kP; ++j) EXPECT_NEAR(cs(0, j), 0.0, 1e-7);
}

TEST_P(EngineTest, InnerProdMatchesGemm) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat b(kP, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < kP; ++i)
      b(i, j) = 0.1 * static_cast<double>(i + 1) * static_cast<double>(j + 1);
  smat got = matmul(x, dense_matrix::from_smat(b)).to_smat();
  smat expect = h.mm(b);
  EXPECT_LT(got.max_abs_diff(expect), 1e-9);
}

TEST_P(EngineTest, InnerProdEuclidean) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat c(kP, 2);  // two "centers" as columns
  for (std::size_t i = 0; i < kP; ++i) {
    c(i, 0) = 0.3;
    c(i, 1) = -0.2 * static_cast<double>(i);
  }
  smat got = inner_prod(x, c, bop_id::sqdiff, agg_id::sum).to_smat();
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      double e = 0;
      for (std::size_t q = 0; q < kP; ++q) {
        const double d = h(i, q) - c(q, j);
        e += d * d;
      }
      EXPECT_NEAR(got(i, j), e, 1e-9);
    }
}

TEST_P(EngineTest, CrossprodMatchesHost) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  smat got = crossprod(x).to_smat();
  smat expect = h.crossprod(h);
  EXPECT_LT(got.max_abs_diff(expect), 1e-7);
}

TEST_P(EngineTest, CrossprodTwoMatrices) {
  dense_matrix x = make_input(kN, kP), y = make_input(kN, 3, 0.7);
  smat got = crossprod(x, y).to_smat();
  smat expect = host_of(x).crossprod(host_of(y));
  EXPECT_LT(got.max_abs_diff(expect), 1e-7);
}

TEST_P(EngineTest, TransposedMatmulOfVirtual) {
  // t(virtual) %*% virtual must fuse into one sink.
  dense_matrix x = make_input(kN, kP);
  dense_matrix cx = x * 2.0;
  smat got = matmul(cx.t(), cx).to_smat();
  smat h = host_of(x) * 2.0;
  EXPECT_LT(got.max_abs_diff(h.crossprod(h)), 1e-6);
}

TEST_P(EngineTest, GroupbyRowAndCounts) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  // Labels 0..4 from the row index.
  const std::size_t k = 5;
  smat lab_host(kN, 1);
  for (std::size_t i = 0; i < kN; ++i)
    lab_host(i, 0) = static_cast<double>(i % k);
  dense_matrix labels = dense_matrix::from_smat(lab_host, scalar_type::i64);
  if (st() == storage::ext_mem) labels = conv_store(labels, storage::ext_mem);

  smat sums = groupby_row(x, labels, k, agg_id::sum).to_smat();
  smat counts = count_groups(labels, k).to_smat();
  smat esums(k, kP);
  std::vector<double> ecounts(k, 0);
  for (std::size_t i = 0; i < kN; ++i) {
    const std::size_t g = i % k;
    ecounts[g] += 1;
    for (std::size_t j = 0; j < kP; ++j) esums(g, j) += h(i, j);
  }
  for (std::size_t g = 0; g < k; ++g) {
    EXPECT_EQ(counts(g, 0), ecounts[g]);
    for (std::size_t j = 0; j < kP; ++j)
      EXPECT_NEAR(sums(g, j), esums(g, j), 1e-8);
  }
}

TEST_P(EngineTest, CumsumColMatchesSerialPrefix) {
  dense_matrix x = make_input(kN, 3);
  smat h = host_of(x);
  smat got = cumsum_col(x).to_smat();
  for (std::size_t j = 0; j < 3; ++j) {
    double run = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      run += h(i, j);
      EXPECT_NEAR(got(i, j), run, 1e-8) << "at (" << i << "," << j << ")";
    }
  }
}

TEST_P(EngineTest, CummaxColAndCumRow) {
  dense_matrix x = make_input(kN, 4);
  smat h = host_of(x);
  smat cmax = cummax_col(x).to_smat();
  smat crow = cum_row(x, bop_id::add).to_smat();
  for (std::size_t j = 0; j < 4; ++j) {
    double run = h(0, j);
    for (std::size_t i = 0; i < kN; ++i) {
      run = std::max(run, h(i, j));
      EXPECT_NEAR(cmax(i, j), run, 1e-12);
    }
  }
  for (std::size_t i = 0; i < kN; ++i) {
    double run = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      run += h(i, j);
      EXPECT_NEAR(crow(i, j), run, 1e-10);
    }
  }
}

TEST_P(EngineTest, NestedCumsum) {
  dense_matrix x = make_input(300, 2);
  smat h = host_of(x);
  smat got = cumsum_col(cumsum_col(x)).to_smat();
  for (std::size_t j = 0; j < 2; ++j) {
    double run1 = 0, run2 = 0;
    for (std::size_t i = 0; i < 300; ++i) {
      run1 += h(i, j);
      run2 += run1;
      EXPECT_NEAR(got(i, j), run2, 1e-7);
    }
  }
}

TEST_P(EngineTest, SelectColsAndCbind) {
  dense_matrix x = make_input(kN, kP);
  smat h = host_of(x);
  dense_matrix sel = select_cols(x, {2, 0, 5});
  smat hsel = sel.to_smat();
  ASSERT_EQ(hsel.ncol(), 3u);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hsel(i, 0), h(i, 2));
    EXPECT_EQ(hsel(i, 1), h(i, 0));
    EXPECT_EQ(hsel(i, 2), h(i, 5));
  }
  dense_matrix joined = cbind({sel, x});
  smat hj = joined.to_smat();
  ASSERT_EQ(hj.ncol(), 3 + kP);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hj(i, 0), h(i, 2));
    EXPECT_EQ(hj(i, 3), h(i, 0));
  }
}

TEST_P(EngineTest, CastRoundTrip) {
  dense_matrix x = make_input(kN, 2, 10.0);
  smat h = host_of(x);
  smat got = x.cast(scalar_type::i32).cast(scalar_type::f64).to_smat();
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(got(i, j), std::trunc(h(i, j)));
}

TEST_P(EngineTest, IntegerMatmulViaGenOps) {
  // Table 2: integer %*% uses inner.prod(*, +) rather than BLAS.
  smat hi(200, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 200; ++i)
      hi(i, j) = static_cast<double>((i * 7 + j * 3) % 11) - 5;
  dense_matrix x = dense_matrix::from_smat(hi, scalar_type::i64);
  if (st() == storage::ext_mem) x = conv_store(x, storage::ext_mem);
  smat b = smat::from_rows(3, 2, {1, -2, 3, 0, -1, 4});
  smat got = inner_prod(x, b, bop_id::mul, agg_id::sum).to_smat();
  EXPECT_EQ(got.max_abs_diff(hi.mm(b)), 0.0);
  smat g2 = crossprod(x).to_smat();
  EXPECT_EQ(g2.max_abs_diff(hi.crossprod(hi)), 0.0);
}

TEST_P(EngineTest, MaterializeAllFusesSinks) {
  dense_matrix x = make_input(kN, kP);
  dense_matrix s1 = sum(x);
  dense_matrix s2 = col_sums(x);
  dense_matrix g = crossprod(x);
  io_stats::global().reset();
  materialize_all({s1, s2, g});
  if (st() == storage::ext_mem && conf().mode != exec_mode::eager) {
    // One pass: the EM leaf is read exactly once even with 3 sinks.
    const std::size_t parts = (kN + 63) / 64;
    EXPECT_EQ(io_stats::global().read_ops.load(), parts);
  }
  smat h = host_of(x);
  EXPECT_NEAR(s2.to_smat()(0, 1), col_sums(x).to_smat()(0, 1), 1e-9);
  EXPECT_LT(g.to_smat().max_abs_diff(h.crossprod(h)), 1e-7);
}

TEST_P(EngineTest, SetCacheKeepsIntermediate) {
  dense_matrix x = make_input(kN, 2);
  dense_matrix mid = x * 3.0;
  mid.set_cache(true);
  dense_matrix total = sum(mid);
  const double v = total.scalar();
  // mid must now be materialized; reusing it must not recompute from x.
  EXPECT_FALSE(mid.is_virtual());
  EXPECT_NEAR(sum(mid).scalar(), v, 1e-8);
}

TEST_P(EngineTest, TallOutputToRequestedStorage) {
  dense_matrix x = make_input(kN, 3);
  dense_matrix y = x + 1.0;
  y.materialize(st());
  smat h = host_of(x);
  smat got = y.to_smat();
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_NEAR(got(i, 0), h(i, 0) + 1.0, 1e-12);
}

TEST_P(EngineTest, GeneratedLeavesInsideDag) {
  dense_matrix r = dense_matrix::runif(kN, 3, -1, 1, /*seed=*/7);
  dense_matrix z = r * r;  // same leaf twice
  smat got = z.to_smat();
  smat rh = r.to_smat();
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_NEAR(got(i, j), rh(i, j) * rh(i, j), 1e-12);
      EXPECT_GE(rh(i, j), -1);
      EXPECT_LT(rh(i, j), 1);
    }
}

TEST_P(EngineTest, RaggedLastPartition) {
  // n chosen to leave a 1-row final partition.
  const std::size_t n = 64 * 3 + 1;
  dense_matrix x = make_input(n, 2);
  smat h = host_of(x);
  EXPECT_NEAR(sum(x).scalar(),
              std::accumulate(h.data(), h.data() + h.size(), 0.0), 1e-9);
  smat got = (x * 2.0).to_smat();
  EXPECT_NEAR(got(n - 1, 1), h(n - 1, 1) * 2, 1e-12);
}

TEST_P(EngineTest, SingleRowMatrix) {
  dense_matrix x = make_input(1, 4);
  smat h = host_of(x);
  EXPECT_NEAR(sum(x).scalar(), h(0, 0) + h(0, 1) + h(0, 2) + h(0, 3), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, EngineTest,
    ::testing::Values(engine_param{exec_mode::eager, storage::in_mem},
                      engine_param{exec_mode::eager, storage::ext_mem},
                      engine_param{exec_mode::mem_fuse, storage::in_mem},
                      engine_param{exec_mode::mem_fuse, storage::ext_mem},
                      engine_param{exec_mode::cache_fuse, storage::in_mem},
                      engine_param{exec_mode::cache_fuse, storage::ext_mem}),
    param_name);

}  // namespace
}  // namespace flashr
