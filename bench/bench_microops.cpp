// Micro-benchmark: throughput of individual GenOps and of fused chains under
// the three execution modes. Not a paper figure — this is the engine-level
// evidence behind Figure 10: fusing a chain of element-wise ops should
// approach the throughput of a single op, while eager execution pays a full
// memory round-trip per op.
#include "bench_common.h"

#include "io/safs.h"

using namespace flashr;
using namespace flashr::bench;

int main() {
  bench_init("microops");
  const std::size_t n = base_n();
  const std::size_t p = 8;
  const double gb =
      static_cast<double>(n * p * sizeof(double)) / (1 << 30);
  header("Micro-ops: GB/s per op and per fused 6-op chain, by exec mode",
         "values: effective input GB/s (higher is better)");
  std::printf("matrix: %zu x %zu (%.2f GB)\n", n, p, gb);

  dense_matrix X = conv_store(dense_matrix::rnorm(n, p, 0, 1, 3),
                              storage::in_mem);

  auto one_op = [&] { sum(X * 2.0).scalar(); };
  auto chain = [&] {
    sum(sqrt(abs(((X * 2.0 + 1.0) - 0.5) * (X * 0.25)))).scalar();
  };

  std::vector<series_row> rows;
  bench_json out("microops");
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    set_mode(m);
    const double t1 = time_once(one_op);
    const double t6 = time_once(chain);
    rows.push_back({exec_mode_name(m), {gb / t1, gb / t6}});
    out.rec()
        .kv("mode", exec_mode_name(m))
        .kv("one_op_gbps", gb / t1)
        .kv("chain_gbps", gb / t6);
  }
  set_mode(exec_mode::cache_fuse);
  print_table({"1 op", "6-op chain"}, rows, "%10.2f");
  std::printf("\nExpected shape: the fused modes hold their throughput on "
              "the chain; eager divides it by the chain length.\n");

  // The exec framework's fixed cost per Pcache chunk: the same one-op pass
  // at the default chunk size and at 4 KiB chunks does the same kernel work
  // over 16x more chunks, so the time difference per extra chunk is the
  // per-chunk overhead.
  header("Per-chunk cost: sum(X * 2) in cache-fuse, default vs 4 KiB Pcache",
         "values: seconds per extra Pcache chunk (lower is better)");
  auto chunks_at = [&](std::size_t pcache_bytes) {
    mutable_conf().pcache_bytes = pcache_bytes;
    const std::size_t part = conf().io_part_rows;
    const std::size_t chunk_rows = exec::pcache_rows(p, part);
    std::size_t chunks = 0;
    for (std::size_t r0 = 0; r0 < n; r0 += part)
      chunks += (std::min(part, n - r0) + chunk_rows - 1) / chunk_rows;
    return chunks;
  };
  const std::size_t default_pcache = conf().pcache_bytes;
  const std::size_t chunks_4k = chunks_at(4 * 1024);
  const double t_4k = time_median(11, one_op);
  const std::size_t chunks_default = chunks_at(default_pcache);
  const double t_default = time_median(11, one_op);
  const double per_chunk =
      (t_4k - t_default) / static_cast<double>(chunks_4k - chunks_default);
  std::printf("  default: %zu chunks %.4f s   4 KiB: %zu chunks %.4f s   "
              "per chunk %.3f us\n",
              chunks_default, t_default, chunks_4k, t_4k, per_chunk * 1e6);
  out.rec()
      .kv("probe", "per_chunk")
      .kv("default_seconds", t_default)
      .kv("pcache_4k_seconds", t_4k)
      .kv("per_chunk_seconds", per_chunk);
  out.write();
  return 0;
}
