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

/// The level a per-level row runs, from argument `idx` (0 baseline, 1
/// x86-64-v3, 2 x86-64-v4), which also labels the row; null, with the row
/// skipped, where this CPU lacks it.
const kern::level_kernels* level_arg(benchmark::State& state, int idx) {
  const auto v = static_cast<vmath::isa>(state.range(idx));
  std::string label = vmath::isa_name(v);
  if (!vmath::isa_supported(v)) {
    label += " not supported here";
    state.SkipWithError(label.c_str());
    return nullptr;
  }
  state.SetLabel(label);
  return &kern::at_level(v);
}

// The chunk kernels of the perfbench workloads, per level, as
// rows/cols/level on f64 chunks of the workloads' shapes: logit_em's
// 128-row chunks of 39 columns and its one-column logits and
// probabilities, etl_em's 128 x 39, interactive's 1024 x 8. Bytes are
// those read and written per call.
void workload_chunks(benchmark::internal::Benchmark* b) {
  b->ArgsProduct({{128}, {39, 1}, {0, 1, 2}})
      ->ArgsProduct({{1024}, {8}, {0, 1, 2}});
}

template <typename Run>
void chunk_case(benchmark::State& state, std::size_t bytes_per_elem,
                Run run) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  const kern::level_kernels* k = level_arg(state, 2);
  if (k == nullptr) return;
  const auto a = random_vec(rows * cols, 15), b = random_vec(rows * cols, 16);
  std::vector<double> out(rows * cols);
  const kern::view av{reinterpret_cast<const char*>(a.data()), rows};
  const kern::view bv{reinterpret_cast<const char*>(b.data()), rows};
  for (auto _ : state) {
    run(*k, av, bv, b.data(), rows, cols, reinterpret_cast<char*>(out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols *
                                                    bytes_per_elem));
}

void BM_kern_map2_mul(benchmark::State& state) {
  chunk_case(state, 24, [](const kern::level_kernels& k, kern::view a,
                           kern::view b, const double*, std::size_t rows,
                           std::size_t cols, char* out) {
    k.map2(scalar_type::f64, bop_id::mul, a, b, false, rows, cols, out, rows);
  });
}
BENCHMARK(BM_kern_map2_mul)->Apply(workload_chunks);

void BM_kern_map_scalar_pmax(benchmark::State& state) {
  chunk_case(state, 16, [](const kern::level_kernels& k, kern::view a,
                           kern::view, const double*, std::size_t rows,
                           std::size_t cols, char* out) {
    k.map_scalar(scalar_type::f64, bop_id::max_v, a, scalar_val(0.0), false,
                 rows, cols, out, rows);
  });
}
BENCHMARK(BM_kern_map_scalar_pmax)->Apply(workload_chunks);

void BM_kern_sweep_rowvec_sub(benchmark::State& state) {
  chunk_case(state, 16, [](const kern::level_kernels& k, kern::view a,
                           kern::view, const double* v, std::size_t rows,
                           std::size_t cols, char* out) {
    k.sweep_rowvec(scalar_type::f64, bop_id::sub, a, v, rows, cols, out, rows);
  });
}
BENCHMARK(BM_kern_sweep_rowvec_sub)->Apply(workload_chunks);

void BM_kern_sweep_rowvec_div(benchmark::State& state) {
  chunk_case(state, 16, [](const kern::level_kernels& k, kern::view a,
                           kern::view, const double* v, std::size_t rows,
                           std::size_t cols, char* out) {
    k.sweep_rowvec(scalar_type::f64, bop_id::div, a, v, rows, cols, out, rows);
  });
}
BENCHMARK(BM_kern_sweep_rowvec_div)->Apply(workload_chunks);

void BM_kern_sapply_abs(benchmark::State& state) {
  chunk_case(state, 16, [](const kern::level_kernels& k, kern::view a,
                           kern::view, const double*, std::size_t rows,
                           std::size_t cols, char* out) {
    k.sapply(scalar_type::f64, uop_id::abs_v, a, rows, cols, out, rows);
  });
}
BENCHMARK(BM_kern_sapply_abs)->Apply(workload_chunks);

// Bytes read: the output is one column.
void BM_kern_agg_row_sum(benchmark::State& state) {
  chunk_case(state, 8, [](const kern::level_kernels& k, kern::view a,
                          kern::view, const double*, std::size_t rows,
                          std::size_t cols, char* out) {
    k.agg_row(scalar_type::f64, agg_id::sum, false, a, rows, cols, out);
  });
}
BENCHMARK(BM_kern_agg_row_sum)->Apply(workload_chunks);

// logit_em's logits, X %*% W on its 128 x 39 chunks, as rows/p/k/level:
// k = 1 for a one-point objective, k = 8 for the line search's widest
// batch. Bytes read from the chunk, as perfbench's inner_prod probe counts
// them.
void BM_kern_inner_prod(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t p = static_cast<std::size_t>(state.range(1));
  const std::size_t k = static_cast<std::size_t>(state.range(2));
  const kern::level_kernels* kl = level_arg(state, 3);
  if (kl == nullptr) return;
  const auto a = random_vec(rows * p, 17);
  smat w(p, k);
  rng64 rng(18);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < p; ++i) w(i, j) = rng.next_normal();
  std::vector<double> out(rows * k);
  for (auto _ : state) {
    kl->inner_prod(scalar_type::f64, bop_id::mul, agg_id::sum,
                   {reinterpret_cast<const char*>(a.data()), rows}, rows, p,
                   w, reinterpret_cast<char*>(out.data()), rows);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * p * 8));
}
BENCHMARK(BM_kern_inner_prod)->ArgsProduct({{128}, {39}, {1, 8}, {0, 1, 2}});

// The crossprod accumulation kernel, t(A) %*% B with B = A's first k
// columns (as in perfbench's own tmm probe), as rows/m/k/level: 40 x 40
// at two chunk lengths and 64 x 64, then the per-chunk shapes perfbench's
// workloads run — logit_em's gradient folds 128-row chunks of 39 columns
// against k = 1 and its batched line-search trials against k = 2, 4 and 8,
// interactive's crossprod(X) 1024-row chunks of 8 columns against k = 8.
// Each shape runs on every level, and a row's label names the level.
void BM_kern_tmm_acc(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t k = static_cast<std::size_t>(state.range(2));
  const kern::level_kernels* kl = level_arg(state, 3);
  if (kl == nullptr) return;
  // B = A's first k columns; A gets k columns where k > m.
  auto a = random_vec(rows * std::max(m, k), 6);
  std::vector<double> acc(m * k, 0);
  const kern::view v{reinterpret_cast<const char*>(a.data()), rows};
  for (auto _ : state) {
    kl->tmm_acc(scalar_type::f64, bop_id::mul, agg_id::sum, v, v, rows, m, k,
                reinterpret_cast<char*>(acc.data()));
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * m * k));
}
BENCHMARK(BM_kern_tmm_acc)
    ->ArgsProduct({{1024}, {8}, {8}, {0, 1, 2}})
    ->ArgsProduct({{1024}, {40}, {40}, {0, 1, 2}})
    ->ArgsProduct({{8192}, {40}, {40}, {0, 1, 2}})
    ->ArgsProduct({{1024}, {64}, {64}, {0, 1, 2}})
    ->ArgsProduct({{128}, {39}, {1, 2, 4, 8}, {0, 1, 2}});

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
