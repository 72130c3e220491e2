// Kernel-level microbenchmarks (google-benchmark): raw throughput of the
// element kernels, the BLAS substrate and the sparse multiply, independent
// of the DAG machinery. Useful for spotting regressions in the hot loops
// that the figure-level benches aggregate over.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "blas/smat.h"
#include "common/rng.h"
#include "core/kernels.h"
#include "core/vmath.h"
#include "sparse/csr.h"

namespace flashr {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  rng64 rng(seed);
  for (auto& x : v) x = rng.next_normal();
  return v;
}

void BM_kern_map2_add(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  auto a = random_vec(rows * cols, 1), b = random_vec(rows * cols, 2);
  std::vector<double> out(rows * cols);
  for (auto _ : state) {
    kern::map2(scalar_type::f64, bop_id::add,
               {reinterpret_cast<const char*>(a.data()), rows},
               {reinterpret_cast<const char*>(b.data()), rows}, false, rows,
               cols, reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols * 8 * 3));
}
BENCHMARK(BM_kern_map2_add)->Arg(1024)->Arg(16384);

void BM_kern_sapply_sqrt(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  auto a = random_vec(rows * cols, 3);
  for (auto& x : a) x = x * x;  // positive
  std::vector<double> out(rows * cols);
  for (auto _ : state) {
    kern::sapply(scalar_type::f64, uop_id::sqrt_v,
                 {reinterpret_cast<const char*>(a.data()), rows}, rows, cols,
                 reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols * 8 * 2));
}
BENCHMARK(BM_kern_sapply_sqrt)->Arg(1024)->Arg(16384);

// The core/vmath ops on the sqrt case's shape, in elements/s, labelled with
// the instruction-set variant that ran. log and log1p take |x| (etl_em's
// log1p(abs(X))), exp and sigmoid the normal draws as they are.
void sapply_vmath_case(benchmark::State& state, uop_id op) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  auto a = random_vec(rows * cols, 12);
  if (op == uop_id::log_v || op == uop_id::log1p_v)
    for (auto& x : a) x = std::abs(x);
  std::vector<double> out(rows * cols);
  for (auto _ : state) {
    kern::sapply(scalar_type::f64, op,
                 {reinterpret_cast<const char*>(a.data()), rows}, rows, cols,
                 reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
  state.SetLabel(vmath::isa_name(vmath::active_isa()));
}

void BM_kern_sapply_exp(benchmark::State& state) {
  sapply_vmath_case(state, uop_id::exp_v);
}
BENCHMARK(BM_kern_sapply_exp)->Arg(1024)->Arg(16384);

void BM_kern_sapply_log(benchmark::State& state) {
  sapply_vmath_case(state, uop_id::log_v);
}
BENCHMARK(BM_kern_sapply_log)->Arg(1024)->Arg(16384);

void BM_kern_sapply_log1p(benchmark::State& state) {
  sapply_vmath_case(state, uop_id::log1p_v);
}
BENCHMARK(BM_kern_sapply_log1p)->Arg(1024)->Arg(16384);

void BM_kern_sapply_sigmoid(benchmark::State& state) {
  sapply_vmath_case(state, uop_id::sigmoid);
}
BENCHMARK(BM_kern_sapply_sigmoid)->Arg(1024)->Arg(16384);

// The reference for BM_kern_sapply_log1p: one scalar libm call per element
// over the same data.
void BM_libm_log1p(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  auto a = random_vec(rows * cols, 12);
  for (auto& x : a) x = std::abs(x);
  std::vector<double> out(rows * cols);
  for (auto _ : state) {
    for (std::size_t i = 0; i < rows * cols; ++i) out[i] = std::log1p(a[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
  state.SetLabel("libm");
}
BENCHMARK(BM_libm_log1p)->Arg(1024)->Arg(16384);

void BM_kern_inner_prod_sqdiff(benchmark::State& state) {
  // The k-means distance kernel: rows x 32 against 32 x 10 centers.
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t p = 32, k = 10;
  auto a = random_vec(rows * p, 4);
  smat centers(p, k);
  rng64 rng(5);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < p; ++i) centers(i, j) = rng.next_normal();
  std::vector<double> out(rows * k);
  for (auto _ : state) {
    kern::inner_prod(scalar_type::f64, bop_id::sqdiff, agg_id::sum,
                     {reinterpret_cast<const char*>(a.data()), rows}, rows, p,
                     centers, reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * p * k));
}
BENCHMARK(BM_kern_inner_prod_sqdiff)->Arg(1024)->Arg(8192);

// The crossprod accumulation kernel, t(A) %*% B with B = A's first k
// columns (as in perfbench's own tmm probe), as rows/m/k/variant: 40 x 40
// at two chunk lengths and 64 x 64, then the per-chunk shapes perfbench's
// workloads run — logit_em's gradient folds 128-row chunks of 39 columns
// against k = 1 and its batched line-search trials against k = 2, 4 and 8,
// interactive's crossprod(X) 1024-row chunks of 8 columns against k = 8.
// Each shape runs on every variant (0 baseline, 1 x86-64-v4), and a row's
// label names the variant that ran.
void BM_kern_tmm_acc(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t k = static_cast<std::size_t>(state.range(2));
  const vmath::isa variant =
      state.range(3) ? vmath::isa::x86_64_v4 : vmath::isa::baseline;
  std::string label = vmath::isa_name(variant);
  if (!vmath::isa_supported(variant)) {
    label += " not supported here";
    state.SkipWithError(label.c_str());
    return;
  }
  // B = A's first k columns; A gets k columns where k > m.
  auto a = random_vec(rows * std::max(m, k), 6);
  std::vector<double> acc(m * k, 0);
  const kern::view v{reinterpret_cast<const char*>(a.data()), rows};
  for (auto _ : state) {
    kern::tmm_acc(variant, scalar_type::f64, bop_id::mul, agg_id::sum, v, v,
                  rows, m, k, reinterpret_cast<char*>(acc.data()));
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * m * k));
  state.SetLabel(label);
}
BENCHMARK(BM_kern_tmm_acc)
    ->ArgsProduct({{1024}, {8}, {8}, {0, 1}})
    ->ArgsProduct({{1024}, {40}, {40}, {0, 1}})
    ->ArgsProduct({{8192}, {40}, {40}, {0, 1}})
    ->ArgsProduct({{1024}, {64}, {64}, {0, 1}})
    ->ArgsProduct({{128}, {39}, {1, 2, 4, 8}, {0, 1}});

// Column sums per chunk, as rows/cols: etl_em's 39-column colSums over
// 128-row chunks, interactive's colSums and sum over 1024-row chunks of 8.
void BM_kern_agg_col_acc(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  auto a = random_vec(rows * cols, 14);
  std::vector<double> acc(cols, 0);
  for (auto _ : state) {
    kern::agg_col_acc(scalar_type::f64, agg_id::sum,
                      {reinterpret_cast<const char*>(a.data()), rows}, rows,
                      cols, reinterpret_cast<char*>(acc.data()));
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols * 8));
}
BENCHMARK(BM_kern_agg_col_acc)->Args({128, 39})->Args({1024, 8});

void BM_blas_gemm_nn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = random_vec(n * n, 7), b = random_vec(n * n, 8);
  std::vector<double> c(n * n);
  for (auto _ : state) {
    blas::gemm_nn(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_blas_gemm_nn)->Arg(64)->Arg(256);

void BM_jacobi_eigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  smat base(n, n);
  rng64 rng(9);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = rng.next_normal();
      base(i, j) = v;
      base(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) base(i, i) += static_cast<double>(n);
  std::vector<double> w(n);
  for (auto _ : state) {
    smat a = base;
    blas::jacobi_eigen(n, a.data(), n, w.data(), nullptr, 0);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_jacobi_eigen)->Arg(32)->Arg(64);

void BM_sparse_spmm(benchmark::State& state) {
  const std::size_t n = 100000;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  static sparse::csr_matrix g = sparse::csr_matrix::random_graph(n, 8.0, 10);
  smat d(n, k);
  rng64 rng(11);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < n; ++i) d(i, j) = rng.next_normal();
  for (auto _ : state) {
    smat out = g.spmm(d);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.nnz() * k));
}
BENCHMARK(BM_sparse_spmm)->Arg(1)->Arg(8);

}  // namespace
}  // namespace flashr

BENCHMARK_MAIN();
