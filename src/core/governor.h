// Overload-resilient execution: admission control and pass supervision.
//
// Two cooperating services keep the engine well-behaved when demand exceeds
// the machine (§4.6 runs FlashR near the memory wall; this layer is what
// lets a misconfigured run degrade instead of thrash or hang):
//
//  * resource_governor — before a pass starts, exec estimates its peak
//    footprint (prefetch window + per-worker partition claims + Pcache chunk
//    state + EM-output staging and write-behind) and compares it with
//    conf().mem_budget_bytes. A footprint over the budget degrades the pass
//    (shrink the prefetch window, then the Pcache chunk, then fall back to
//    eager mode) until it fits; one that never fits surfaces a typed
//    overload_error. A process runs one materialize() at a time, so the
//    budget is a plain comparison: there is no ledger to reserve against
//    and no other pass to wait for. The governor itself keeps only the
//    health accounting and the admission counters.
//
//  * pass_watchdog — one lazy, process-lifetime thread supervising running
//    passes. A pass past its absolute deadline, or one with reads in flight
//    but no completion for watchdog_stall_ms (an SSD whose completions stop
//    arriving — injectable via the deterministic `stall` fault site), is
//    cancelled through the pass's own cooperative path (pass_runner::fail),
//    so the zero-leak teardown and pool audit run exactly as for any other
//    pass error, and the caller sees a typed timeout_error.
//
// Degradation never changes results: the ladder only shrinks read-ahead and
// chunking, both of which are bit-identical by construction (sinks merge in
// partition order; chunked accumulation visits rows in the same order).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/thread_safety.h"

namespace flashr::exec {

class resource_governor {
 public:
  /// Point-in-time health: not ok while a pass runs degraded or a watchdog
  /// trip is live. Incident bundles embed it as their governor section.
  struct health_snapshot {
    bool ok = true;
    std::size_t mem_budget_bytes = 0;
    std::size_t degraded_passes = 0;
    std::size_t tripped_passes = 0;
    std::string reason;  ///< empty when ok

    std::string to_json() const;
  };
  health_snapshot health() const;

  /// Degraded/tripped pass accounting (drives health()). Begin/end pairs
  /// are called by exec around a degraded pass and by the watchdog around a
  /// tripped watch's remaining lifetime.
  void note_degraded_begin() {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_degraded_end() { degraded_.fetch_sub(1, std::memory_order_relaxed); }
  void note_tripped_begin() { tripped_.fetch_add(1, std::memory_order_relaxed); }
  void note_tripped_end() { tripped_.fetch_sub(1, std::memory_order_relaxed); }
  /// Count one admitted pass (the cumulative governor.admitted metric).
  void count_admitted();
  /// Count one degradation-ladder step (exec records the step itself in the
  /// pass profile; this feeds the cumulative governor.degrade_steps metric).
  void count_degrade_step();
  /// Count one overload_error surfaced to a caller.
  void count_reject();

  static resource_governor& global();

 private:
  std::atomic<std::size_t> degraded_{0};
  std::atomic<std::size_t> tripped_{0};
};

class pass_watchdog {
 public:
  /// I/O progress of a watched pass, polled by the watchdog thread.
  struct io_progress {
    std::size_t inflight = 0;             ///< leaf reads in flight
    std::uint64_t last_completion_ns = 0; ///< 0 before the first completion
  };
  using progress_fn = std::function<io_progress()>;
  /// Cooperative cancellation hook (pass_runner::fail): must be safe to
  /// call from the watchdog thread while workers run, and must not block.
  using cancel_fn = std::function<void(std::exception_ptr)>;

  /// Start supervising a pass. `deadline_ns` is the absolute now_ns()
  /// instant the pass must finish by (0 = no deadline); `stall_ns` is the
  /// max time with reads in flight but no completion (0 = stall detection
  /// off). The pass is cancelled with a typed timeout_error when either
  /// fires; `deadline_ms`/`stall_ms` label the error. Returns a token for
  /// unwatch(); returns 0 (and watches nothing) when both limits are 0.
  std::uint64_t watch(std::uint64_t pass_id, std::uint64_t deadline_ns,
                      std::uint64_t deadline_ms, std::uint64_t stall_ns,
                      std::uint64_t stall_ms, progress_fn progress,
                      cancel_fn cancel);

  /// Stop supervising. Must be called before the progress/cancel callbacks'
  /// referents die; returns after the watchdog can no longer invoke them.
  void unwatch(std::uint64_t token);

  static pass_watchdog& global();

 private:
  struct entry {
    std::uint64_t pass_id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t deadline_ns = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t stall_ms = 0;
    progress_fn progress;
    cancel_fn cancel;
    bool tripped = false;
  };

  /// One poll verdict for one supervised entry; POD so the nonblocking
  /// poll body below allocates nothing.
  struct trip_decision {
    enum class kind { none, deadline, stall };
    kind k = kind::none;
    std::uint64_t elapsed_ns = 0;  ///< measured duration for the error text
  };

  pass_watchdog();
  void loop();
  /// Poll body: decide whether `e` has tripped at instant `now`. Runs on
  /// every watchdog wakeup for every entry, so it must never block or
  /// allocate (the cancel machinery — exception construction, counters,
  /// the callback itself — stays in loop()); the analyzer verifies that.
  static trip_decision check_entry(const entry& e,
                                   std::uint64_t now) FLASHR_NONBLOCKING;

  mutable mutex wd_mtx_ LOCK_RANK(watchdog);
  cond_var cv_;
  std::unordered_map<std::uint64_t, entry> entries_ GUARDED_BY(wd_mtx_);
  std::uint64_t next_token_ GUARDED_BY(wd_mtx_) = 1;
  /// Token whose cancel callback is executing (watchdog lock dropped);
  /// unwatch() of that token waits until the call returns.
  std::uint64_t cancelling_ GUARDED_BY(wd_mtx_) = 0;
};

}  // namespace flashr::exec
