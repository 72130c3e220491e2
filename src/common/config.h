// Global engine configuration. A single flashr::options instance is installed
// by flashr::init() and read through flashr::conf(). The defaults target the
// evaluation container (few cores, local disk); the paper's machine would set
// num_threads=48, stripes=24 and larger partitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

namespace flashr {

/// How a DAG of matrix operations is executed (the ablation axis of Fig 10).
enum class exec_mode : int {
  /// "base": every operation materializes its full output in its own pass
  /// (on SSDs when storage is external memory).
  eager = 0,
  /// Operations fused at I/O-partition granularity: one pass over SSD data,
  /// but each intermediate materializes a whole I/O partition in RAM.
  mem_fuse = 1,
  /// Default: I/O partitions split into processor-cache partitions; the DAG
  /// is evaluated depth-first one Pcache partition at a time with buffer
  /// recycling (mem-fuse + cache-fuse in the paper's terms).
  cache_fuse = 2,
};

const char* exec_mode_name(exec_mode m);

/// Per-I/O-partition CRC32 policy for external-memory matrices.
enum class checksum_policy : int {
  off = 0,     ///< no checksums (default)
  verify = 1,  ///< verify on read; mismatch raises io_error
  repair = 2,  ///< verify on read; on mismatch re-read once before failing
};

const char* checksum_policy_name(checksum_policy p);

/// Where materialized matrices live.
enum class storage : int {
  in_mem = 0,   ///< FlashR-IM
  ext_mem = 1,  ///< FlashR-EM (SAFS files on "SSDs")
};

struct options {
  /// Worker threads for compute.
  int num_threads = static_cast<int>(std::thread::hardware_concurrency());
  /// Dedicated I/O threads servicing asynchronous reads/writes. Workers
  /// idle in a prefetch pop run queued requests too, so this is a floor on
  /// I/O parallelism, not a cap.
  int io_threads = 2;
  /// Rows per I/O partition; must be a power of two (paper §3.2.1).
  std::size_t io_part_rows = 16384;
  /// Target bytes per matrix for one Pcache partition; determines how many
  /// rows of an I/O partition are materialized at a time under cache_fuse.
  std::size_t pcache_bytes = 64 * 1024;
  /// Directory holding SAFS backing files.
  std::string em_dir = "/tmp/flashr_em";
  /// Number of backing files an EM matrix is striped over ("SSD array").
  int stripes = 4;
  /// Bytes per stripe unit when striping EM data across backing files.
  std::size_t stripe_unit = std::size_t{1} << 20;
  /// Attempt O_DIRECT for EM I/O (falls back transparently if unsupported).
  bool direct_io = false;
  /// Emulated aggregate I/O throughput in MB/s; 0 = unthrottled. Used by
  /// benchmarks to reproduce the paper's RAM-vs-SSD gap on fast local disks.
  double io_throttle_mbps = 0.0;
  /// Execution mode for DAG materialization.
  exec_mode mode = exec_mode::cache_fuse;
  /// Matrices with at most this many rows are evaluated eagerly with serial
  /// kernels instead of joining a DAG (cluster centers, sink results, ...).
  std::size_t small_nrow_threshold = 4096;
  /// Read-ahead window of the pass's prefetch pipeline (core/
  /// prefetch_pipeline.h): partitions with reads in flight or completed and
  /// waiting for a worker, which also bounds the reads running at once.
  /// -1 = auto (2 * io_threads: one read in flight and one landed
  /// partition per I/O thread); 0 = no read-ahead (the window holds one
  /// partition per worker waiting for one, so I/O and compute serialize
  /// per worker — the ablation baseline of bench_pipeline). A larger
  /// explicit depth buys slack against a slow or spiky device.
  int prefetch_depth = -1;
  /// Bounded write-behind: submit of an asynchronous partition write blocks
  /// while this many bytes of write data are queued or in flight, so a
  /// compute phase that outruns the SSDs cannot exhaust the buffer pool.
  /// 0 = unbounded. A single write larger than the budget is still admitted
  /// once the write queue is empty (the bound never deadlocks). A pass's
  /// own write back-pressure usually binds first: it holds at most
  /// (depth + 2 * num_threads + io_threads) output partitions in flight,
  /// and the governor charges the smaller of the two.
  std::size_t max_inflight_write_bytes = std::size_t{256} << 20;

  // --- Resource governor (core/governor.h) ---------------------------------
  /// Budget of transient pass memory (pool buffers for the prefetch window,
  /// per-worker chunk state, EM output staging and the write-behind queue).
  /// Before a pass starts, its estimated footprint is compared with this;
  /// over budget, it walks the degradation ladder (shrink prefetch_depth,
  /// shrink Pcache chunk rows, fall back to streaming eager execution) and,
  /// still over budget, fails with overload_error. One pass runs at a time,
  /// so the budget is per pass. 0 = unlimited (no memory admission control).
  std::size_t mem_budget_bytes = 0;
  /// Default deadline for one materialize() call, milliseconds; a pass past
  /// its deadline is cooperatively cancelled by the watchdog and surfaces
  /// timeout_error. 0 = no deadline. materialize_opts::deadline_ms
  /// overrides per call.
  std::uint64_t pass_deadline_ms = 0;
  /// Hung-I/O detection: a pass with reads in flight but no completion for
  /// this long is cancelled with timeout_error. 0 = disabled.
  std::uint64_t watchdog_stall_ms = 0;

  // --- Resilience (io/fault.h, io/safs.cpp) --------------------------------
  /// Retries for transient syscall failures (EAGAIN/EIO) before the error
  /// escalates as a typed io_error. EINTR is always retried immediately and
  /// does not count against this budget.
  int io_max_retries = 4;
  /// Initial retry backoff in microseconds; doubles per attempt with
  /// deterministic jitter in [0.5, 1.0] of the nominal delay.
  int io_retry_backoff_us = 100;
  /// Upper bound on a single backoff sleep, microseconds.
  int io_retry_backoff_cap_us = 20000;
  /// Checksum policy applied to EM partition reads/writes.
  checksum_policy io_checksum = checksum_policy::off;
  // Deterministic fault injection has no option: a fault_scope
  // (io/fault.h) arms it.

  // --- Observability (src/obs/) --------------------------------------------
  /// Collect trace events in the per-thread rings (obs/trace.h). Also
  /// enabled by a non-empty, non-"0" FLASHR_TRACE environment variable at
  /// init(); off costs one relaxed load per instrumentation site.
  bool obs_trace = false;
  /// Record the extended obs histograms (read and write latency, write
  /// throttle stalls, prefetch window occupancy) into the metrics registry
  /// (obs/metrics.h). Legacy io_stats/pass_stats always accumulate.
  bool obs_metrics = false;
  /// Trace ring capacity per thread, in events (32 bytes each); must be a
  /// power of two. When a ring fills, the oldest events are overwritten and
  /// counted as dropped.
  std::size_t obs_ring_events = std::size_t{1} << 16;
  /// When non-empty, write the trace here automatically at process exit.
  /// FLASHR_TRACE=<path> (any value other than "0"/"1") sets this too.
  std::string obs_trace_path;
  /// Collect per-node pass profiles (obs/profile.h) for explain_analyze()
  /// and the pass-history ring (obs::profile_history_json()). Also
  /// enabled by a non-empty, non-"0" FLASHR_PROFILE environment variable at
  /// init(); off costs one relaxed load per materialization.
  bool obs_profile = false;
  /// Pass profiles kept in the bounded history ring (most recent N).
  std::size_t obs_profile_history = 64;
  /// Keep the always-on flight recorder retaining the last seconds of spans
  /// and instants per thread in small fixed rings (obs/trace.h), independent
  /// of obs_trace, so incident bundles and crash dumps always have a tail to
  /// show. Default ON (the cost is the same relaxed-load gate tracing pays
  /// plus ~64 KiB per thread); FLASHR_FLIGHT=0 disables it.
  bool obs_flight = true;
  /// Flight-recorder window included in incident bundles, seconds. The
  /// rings are bounded by capacity, not time; this only bounds how far back
  /// a bundle reaches.
  int obs_flight_secs = 30;
  /// Continuous sampling profiler (obs/sampler.h): per-thread SIGPROF
  /// timers at this frequency capture frame-pointer stacks plus the
  /// thread's wait state into lock-free rings; a collector folds them into
  /// flamegraph-ready aggregates. 0 (default) = off — every
  /// instrumentation site then costs one relaxed load. Also set by
  /// FLASHR_SAMPLE (=1 for the default 97 Hz, =<hz> for a specific rate,
  /// =<path> to additionally write folded stacks there at exit).
  int obs_sample_hz = 0;
  /// When non-empty, write the sampler's folded stacks (flamegraph.pl
  /// collapsed format) here at process exit. FLASHR_SAMPLE=<path> sets
  /// this too.
  std::string obs_sample_path;
  /// When non-empty, append one flashr-prof-v1 profile-history record
  /// (the sampler's folded stacks) here at process exit, if the sampler
  /// folded any samples; retention-bounded like incident bundles. Also set
  /// by FLASHR_PROF_DIR. tools/bench_compare.py --attribute diffs two
  /// records to name the stack that regressed.
  std::string obs_prof_dir;
  /// Profile-history records retained in obs_prof_dir; oldest pruned.
  int obs_prof_keep = 32;
  /// When non-empty, arm the incident subsystem (obs/incident.h): watchdog
  /// trips, governor escalations, invariant/lock-rank aborts, exhausted I/O
  /// retries and SIGUSR2 each drop a JSON post-mortem bundle here, and the
  /// crash handler dumps raw black-box state on SIGSEGV/SIGBUS/SIGABRT/
  /// SIGFPE. Also set by FLASHR_INCIDENT_DIR.
  std::string incident_dir;
  /// Incident bundles retained in incident_dir; the oldest are pruned.
  /// Crash dumps are never pruned.
  int incident_max_bundles = 16;

  void validate() const;
};

/// Install `opts` as the global configuration. Creates em_dir. Must be called
/// before matrices are created; re-initialization is allowed when no engine
/// state is live (tests do this to sweep configurations).
void init(const options& opts = options());

/// Tear down engine state (thread pools, buffer pools). Idempotent.
void shutdown();

/// Current configuration; initializes with defaults on first use.
const options& conf();

/// Mutable access for test/bench knobs that are safe to flip between DAG
/// executions (mode, throttle, pcache size).
options& mutable_conf();

}  // namespace flashr
