// Continuous on-CPU sampling profiler (the fourth pillar of src/obs/).
//
// Span tracing, metrics, and explain_analyze() only see *instrumented*
// sites; time spent inside BLAS inner loops, the allocator, or page-fault
// handling is invisible to all of them. The sampler closes that gap: every
// attached thread owns a POSIX per-thread timer (timer_create +
// SIGEV_THREAD_ID) that delivers SIGPROF at obs_sample_hz. The signal
// handler — async-signal-safe under the analyzer's FLASHR_SIGNAL_SAFE
// rules — walks the frame-pointer chain and records the raw pcs plus the
// interrupted thread's wait state (a thread-local relaxed atomic set by
// obs::probe and sample_idle_scope) into a per-thread lock-free SPSC ring. A collector thread drains the rings every ~50 ms and folds samples
// into (stack, state)-keyed aggregates.
//
// Off-CPU attribution: the probe (obs/trace.h) at each blocking site of the
// executor, I/O layer, governor and pool names the wait state its interval
// covers (probe_site::wait), so a sample taken while a thread sits in one
// of those windows is keyed io_wait or lock_wait instead of cpu, and a
// thread parked with no work (sample_idle_scope) is keyed idle. Every
// profile therefore splits into on-CPU / I/O-wait / lock-wait / idle with
// no post-hoc log joining.
//
// Samples carry no DAG node or pass: a node's time is the pass profile's
// measured kernel_ns (obs/profile.h). The sampler names stacks.
//
// Export paths (all symbolization — dladdr + demangle — happens here, far
// from the signal handler):
//   * folded stacks, flamegraph.pl collapsed format:
//     "track;state;outer;...;inner count" via folded_stacks() and
//     write_folded() (FLASHR_SAMPLE=<path> writes them at exit);
//   * the trailing window of folded stacks in incident bundles
//     (folded_recent());
//   * flashr-prof-v1 history records via obs/prof_store.h, diffed stack by
//     stack by tools/bench_compare.py --attribute.
//
// Cost when off: obs_sample_hz=0 (the default) arms no timers and a
// probe's wait state is a single relaxed load — pinned by the microops
// overhead test like the flight recorder's.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace flashr::obs {

namespace detail {
/// Sampling rate in Hz; 0 = off. One relaxed load gates every scope.
extern std::atomic<std::uint32_t> g_sample_hz;
}  // namespace detail

/// Whether the sampler is running (obs_sample_hz > 0 and started).
inline bool sampler_on() {
  return detail::g_sample_hz.load(std::memory_order_relaxed) != 0;
}

/// What a sample taken "now" on this thread means. cpu is the default;
/// the wait states are entered by the probe around a blocking window
/// (probe_site::wait), and idle via sample_idle_scope around a thread's
/// wait for work.
enum class sample_state : std::uint8_t {
  cpu = 0,
  io_wait = 1,
  lock_wait = 2,
  idle = 3,
};

inline constexpr const char* sample_state_name(sample_state s) {
  switch (s) {
    case sample_state::cpu: return "cpu";
    case sample_state::io_wait: return "io_wait";
    case sample_state::lock_wait: return "lock_wait";
    case sample_state::idle: return "idle";
  }
  return "?";
}

namespace detail {
/// Per-thread sampling context read by the SIGPROF handler. The handler
/// interrupts the same thread that writes it, so program order makes a
/// plain relaxed atomic sufficient (no cross-thread visibility needed).
struct sample_tls_ctx {
  std::atomic<std::uint8_t> state{0};  ///< sample_state
};
extern thread_local sample_tls_ctx t_sample_ctx;
}  // namespace detail

/// Mark this thread as parked with no work (a pool worker waiting for a
/// job, the watchdog between polls, an I/O thread on an empty FIFO) for
/// the scope's lifetime. Unlike a probe's wait state it arms even while
/// the sampler is off: a thread may park before the sampler starts and
/// stay parked through the whole profile. Two relaxed stores, next to a wait.
class sample_idle_scope {
 public:
  sample_idle_scope() {
    auto& c = detail::t_sample_ctx;
    prev_ = c.state.load(std::memory_order_relaxed);
    c.state.store(static_cast<std::uint8_t>(sample_state::idle),
                  std::memory_order_relaxed);
  }
  ~sample_idle_scope() {
    detail::t_sample_ctx.state.store(prev_, std::memory_order_relaxed);
  }
  sample_idle_scope(const sample_idle_scope&) = delete;
  sample_idle_scope& operator=(const sample_idle_scope&) = delete;

 private:
  std::uint8_t prev_ = 0;
};

/// Attach the calling thread to the sampler: allocate its sample ring,
/// record its stack bounds, and arm its per-thread timer if the sampler is
/// running. Idempotent; re-attaching just updates the track name. Called
/// from obs::set_thread_name() so every named engine thread (worker-N,
/// io-N, watchdog, incident) is covered automatically; the main
/// thread attaches in sampler_start(). `track` must have static storage
/// duration or be copied by the caller — the sampler copies it.
void sampler_thread_attach(const char* track);

/// Start sampling at `hz` (arms timers on every attached thread and
/// spawns the collector). Restartable; a second call with a different rate
/// re-arms. hz <= 0 is a no-op.
void sampler_start(int hz);

/// Stop sampling: disarm timers, drain rings, stop the collector.
/// Aggregates are retained for export until sampler_clear().
void sampler_stop();

/// Drop all aggregated samples and counters (tests isolate themselves
/// with this; stop first).
void sampler_clear();

/// Monotone counters (survive stop; cleared by sampler_clear()).
struct sampler_counters {
  /// Samples folded by the collector. A signal counts 1 + its timer
  /// overruns: periods that expired while it was pending still count.
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;  ///< ring-full drops (newest-dropped)
  std::uint32_t hz = 0;       ///< current rate, 0 when stopped
  /// ns per sample at the last rate started (kept after stop); 0 if the
  /// sampler never ran.
  std::uint64_t period_ns = 0;
};
sampler_counters sampler_stats();

/// All folded stacks collected so far, flamegraph.pl collapsed format:
/// one "track;state;outer;...;inner count" line each, symbolized here.
std::string folded_stacks();

/// Folded stacks observed within the trailing `window_ns` (incident
/// bundles grab ~5s of this at trigger time).
std::string folded_recent(std::uint64_t window_ns);

/// What write_folded() flushed.
struct folded_summary {
  std::size_t lines = 0;      ///< distinct stacks written
  std::uint64_t samples = 0;  ///< total sample count across them
  std::uint64_t dropped = 0;  ///< ring-full drops over the same period
};

/// folded_stacks() to a file. lines == 0 may also mean the file could not
/// be written (a warning is logged).
folded_summary write_folded(const std::string& path);

/// Register flashr_sampler_samples / flashr_sampler_drops gauge probes
/// with the metrics registry (idempotent; they read 0 while off).
void sampler_register_metrics();

}  // namespace flashr::obs
