// Design ablation: the shared partition prefetch pipeline
// (core/prefetch_pipeline.h) vs synchronous per-partition reads.
//
// A multi-op DAG streams an external-memory matrix through a throttled "SSD
// array" with occasional latency spikes (the deterministic fault-injection
// latency site emulates SSD GC pauses; the schedule is identical for every
// depth). prefetch_depth = 0 reproduces the unpipelined engine — the worker
// issues its partition's reads and runs or waits for them before computing,
// so I/O and compute serialize. Running its own read (the I/O service's
// help_one) counts as read-wait, like waiting for one. Depths
// 2/4/8 keep a window of reads in flight across the whole pass: the
// baseline read time overlaps compute entirely, and latency spikes are
// absorbed by however many completed partitions the window has buffered —
// so read-wait keeps shrinking as the window deepens.
//
// One compute worker makes the ablation exact: with several workers, the
// synchronous baseline already overlaps one worker's read with another's
// compute, which hides the pipeline's contribution.
//
// The sweep ends with the default configuration (prefetch_depth = -1, two
// partitions per I/O thread), labelled with the depth it resolves to.
//
// Reported per depth: median wall seconds, the pass's read-wait
// (exec::last_pass_stats) and mean window occupancy; BENCH_pipeline.json
// carries the same records for CI artifacts.
#include "bench_common.h"

#include "core/exec.h"
#include "io/fault.h"

using namespace flashr;
using namespace flashr::bench;

namespace {

/// The measured DAG: a chain of elementwise ops over the EM matrix feeding
/// an aggregation sink, so one pass reads X once and writes nothing.
double run_dag(const dense_matrix& X) {
  dense_matrix y = (((X * 1.0000001 + 0.5) * X) - (X * 0.25)) / 1.5;
  y = (y * y + y) * 0.125 + (y / 3.0);
  return agg(y, agg_id::sum).scalar();
}

}  // namespace

int main() {
  bench_init("pipeline");
  auto& o = mutable_conf();
  o.num_threads = 1;
  o.io_threads = 2;
  // Small partitions give the pass enough scheduling granularity for the
  // window to matter.
  o.io_part_rows = 2048;

  const std::size_t n = std::max<std::size_t>(base_n() / 2, 64 * 1024);
  const std::size_t cols = 8;
  const std::size_t num_parts = (n + o.io_part_rows - 1) / o.io_part_rows;

  header("Ablation: prefetch pipeline depth sweep (throttled SSDs, "
         "single worker)",
         "values: median wall seconds per depth; read-wait shrinks as the "
         "window deepens");

  // Build the EM input unthrottled.
  set_throttle(0);
  dense_matrix X = dense_matrix::runif(n, cols, 0.0, 1.0, 7);
  X = conv_store(X, storage::ext_mem);

  // Calibrate against the measured compute rate: emulate an SSD array whose
  // baseline read time is ~70% of compute (so the average pass is compute
  // bound and the window can actually fill), then add latency spikes worth
  // ~6 partitions of slack each to ~12% of reads. A depth-K window absorbs
  // a spike iff it has buffered >= spike/slack partitions, which is what
  // spreads the depths apart.
  // Every record's throttle and spikes derive from this one number, so it
  // is the median of 9 passes after two warm-up passes (page cache, pools),
  // not of the first few.
  o.prefetch_depth = 8;
  volatile double sink = run_dag(X);
  sink = run_dag(X);
  const double t_compute = time_median(9, [&] { sink = run_dag(X); });
  const double pass_mb =
      static_cast<double>(exec::last_pass_stats().read_bytes) / 1e6;
  const double c_us = t_compute * 1e6 / static_cast<double>(num_parts);
  const double r_us = 0.7 * c_us;
  double mbps = (pass_mb / static_cast<double>(num_parts)) / (r_us / 1e6);
  if (mbps < 1.0) mbps = 1.0;
  // Each sweep point arms the spikes with its own fault_scope, which
  // restarts the schedule, so every depth and budget sees the same spikes.
  fault_plan spikes;
  spikes.latency_prob = 0.12;
  spikes.latency_us = static_cast<int>(6.0 * (c_us - r_us));
  std::printf("n = %zu x %zu (%zu partitions), pass reads %.1f MB, "
              "unthrottled %.3fs\n"
              "emulated SSD array: %.0f MB/s, %d us latency spikes on 12%% "
              "of reads\n\n",
              n, cols, num_parts, pass_mb, t_compute, mbps,
              spikes.latency_us);

  bench_json out("pipeline");
  const int depths[] = {0, 2, 4, 8, -1};
  const int reps = 5;
  std::vector<series_row> rows;
  double t_depth0 = 0;
  for (int depth : depths) {
    o.prefetch_depth = depth;
    const long resolved = exec::default_prefetch_depth();
    const std::string label =
        depth < 0 ? "auto (" + std::to_string(resolved) + ")"
                  : std::to_string(depth);
    set_throttle(mbps);
    // Medians of wall AND read-wait: a single observation of either is
    // jittery at container scales.
    std::vector<double> walls, waits;
    exec::pass_stats ps;
    {
      fault_scope armed(spikes);
      for (int rep = 0; rep < reps; ++rep) {
        walls.push_back(time_once([&] { sink = run_dag(X); }));
        ps = exec::last_pass_stats();
        waits.push_back(static_cast<double>(ps.read_wait_ns) / 1e9);
      }
    }
    set_throttle(0);
    std::sort(walls.begin(), walls.end());
    std::sort(waits.begin(), waits.end());
    const double t = walls[walls.size() / 2];
    const double wait_s = waits[waits.size() / 2];
    if (depth == 0) t_depth0 = t;
    const double occupancy = static_cast<double>(ps.occupancy_x100) / 100.0;
    rows.push_back({"depth " + label, {t, wait_s, occupancy}});
    std::printf("  depth %s: %.3fs wall, %.3fs read-wait, occupancy %.2f, "
                "speedup over depth 0 %.2fx\n",
                label.c_str(), t, wait_s, occupancy, t_depth0 / t);
    out.rec();
    if (depth < 0)
      out.kv("depth", "auto").kv("resolved_depth",
                                  static_cast<long long>(resolved));
    else
      out.kv("depth", depth);
    out.kv("seconds", t)
        .kv("read_wait_seconds", wait_s)
        .kv("window_occupancy", occupancy)
        .kv("speedup_vs_depth0", t_depth0 / t)
        .kv("read_mb", static_cast<double>(ps.read_bytes) / 1e6)
        .kv("reads_issued", ps.reads_issued)
        .kv("throttle_mbps", mbps)
        .kv("latency_spike_us", spikes.latency_us)
        .kv("n", n)
        .kv("threads", o.num_threads)
        .kv("io_threads", o.io_threads)
        .kv("mode", exec_mode_name(conf().mode));
  }
  o.prefetch_depth = -1;

  print_table({"wall s", "read-wait s", "occupancy"}, rows);
  std::printf("\nExpected shape: depth >= 4 beats depth 0 by >= 1.3x and "
              "read-wait decreases monotonically from depth 2 on.\n");

  // -------------------------------------------------------------------------
  // Graceful degradation: throughput vs memory budget
  //
  // The same throttled DAG under a shrinking mem_budget_bytes: the resource
  // governor walks its ladder (halving the depth-8 window toward depth 0),
  // so throughput decays smoothly instead of the run failing or thrashing.
  // Budget 0 (unlimited) is the reference; each tighter rung records its
  // wall time and the deterministic degradation path it was admitted with.
  // -------------------------------------------------------------------------
  header("Degradation: throughput vs memory budget (depth-8 window, "
         "same throttled SSDs)",
         "values: median wall seconds per budget; tighter budgets shrink "
         "the window, throughput decays gracefully");

  // Budgets in units of one EM partition. The exact ladder each budget
  // walks (depth halvings, then Pcache chunk halvings) depends on the DAG's
  // node count; what the sweep asserts is the *shape* — every budget admits
  // (no failures) and throughput decays smoothly as the rungs bite.
  const std::size_t part_bytes = o.io_part_rows * cols * sizeof(double);
  const std::size_t budgets[] = {
      0,                // unlimited: the undegraded reference
      24 * part_bytes,  // roomy: window, claims and chunks fit untouched
      8 * part_bytes,   // the depth-8 window no longer fits
      5 * part_bytes,
      3 * part_bytes,
  };
  std::vector<series_row> budget_rows;
  double t_unlimited = 0;
  for (const std::size_t budget : budgets) {
    o.prefetch_depth = 8;
    o.mem_budget_bytes = budget;
    set_throttle(mbps);
    std::vector<double> walls;
    {
      fault_scope armed(spikes);
      for (int rep = 0; rep < reps; ++rep)
        walls.push_back(time_once([&] { sink = run_dag(X); }));
    }
    set_throttle(0);
    std::sort(walls.begin(), walls.end());
    const double t = walls[walls.size() / 2];
    if (budget == 0) t_unlimited = t;
    const exec::pass_stats ps = exec::last_pass_stats();
    budget_rows.push_back(
        {budget == 0 ? "budget off" : "budget " + std::to_string(budget),
         {t, static_cast<double>(ps.degrade_steps), t_unlimited / t}});
    std::printf("  budget %9zu: %.3fs wall, %zu degrade steps [%s], "
                "throughput vs unlimited %.2fx\n",
                budget, t, ps.degrade_steps,
                ps.degrade_path.empty() ? "-" : ps.degrade_path.c_str(),
                t_unlimited / t);
    out.rec()
        .kv("budget_bytes", budget)
        .kv("seconds", t)
        .kv("throughput_speedup_vs_unlimited", t_unlimited / t)
        .kv("degrade_steps", ps.degrade_steps)
        .kv("degrade_path", ps.degrade_path.empty() ? "-" : ps.degrade_path)
        .kv("read_mb", static_cast<double>(ps.read_bytes) / 1e6)
        .kv("n", n)
        .kv("threads", o.num_threads)
        .kv("io_threads", o.io_threads)
        .kv("mode", exec_mode_name(conf().mode));
  }
  o.prefetch_depth = -1;
  o.mem_budget_bytes = 0;

  print_table({"wall s", "degrade steps", "vs unlimited"}, budget_rows);
  out.write();
  std::printf("\nExpected shape: throughput decays monotonically (and "
              "gracefully — no failures) as the budget tightens.\n");
  (void)sink;
  return 0;
}
