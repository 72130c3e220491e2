// Deterministic, seeded I/O fault injection.
//
// Every storage syscall the engine makes (io/safs.cpp) goes through the
// fault_pread/fault_pwrite shims below, which consult a process-wide
// fault_injector before touching the kernel. The injector evaluates a
// schedule at four named sites:
//
//   pread    — the syscall returns -1 with a configured errno
//   pwrite   — likewise for writes
//   latency  — the syscall is delayed by a configured number of microseconds
//   short_io — a read hits premature EOF (returns 0, so the caller's loop
//              zero-fills: the silent-corruption case partition checksums
//              exist to catch); a write transfers only half its bytes
//
// The schedule is a pure function of (seed, site, per-site syscall index)
// via the counter-based RNG in common/rng.h, so a given plan injects the
// same fault sequence on every run regardless of thread interleaving of
// *other* work. An optional total budget (max_faults) disarms the schedule
// after N injections, which lets tests assert exact retry counts.
//
// Nothing is injected until a fault_scope installs a plan; fault_scope is
// the one way to arm the injector (tests, bench_pipeline's latency spikes).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/thread_safety.h"

namespace flashr {

enum class fault_site : int {
  pread = 0,
  pwrite = 1,
  latency = 2,
  short_io = 3,
  /// Completion stall: the delivery of a finished read — its completion
  /// callback in io/async_io.cpp, AFTER the data landed — is delayed by
  /// stall_us. Models an SSD whose completions stop
  /// arriving; the hung-I/O watchdog (core/governor.h) is tested against
  /// this site so stall detection never depends on wall-clock scheduling
  /// luck.
  stall = 4,
};
inline constexpr int kNumFaultSites = 5;

const char* fault_site_name(fault_site s);

/// One injection schedule.
struct fault_plan {
  std::uint64_t seed = 0x5eedULL;
  double pread_prob = 0.0;
  double pwrite_prob = 0.0;
  double latency_prob = 0.0;
  double short_prob = 0.0;
  double stall_prob = 0.0;
  int latency_us = 200;
  int stall_us = 100000;
  int fault_errno = 5;             // EIO
  std::size_t max_faults = 0;      // total budget; 0 = unlimited

  double prob(fault_site s) const;
  bool armed() const {
    return pread_prob > 0.0 || pwrite_prob > 0.0 || latency_prob > 0.0 ||
           short_prob > 0.0 || stall_prob > 0.0;
  }
};

class fault_injector {
 public:
  struct decision {
    bool fire = false;
    int err = 0;       // pread/pwrite sites: errno to inject
    int sleep_us = 0;  // latency site: delay to apply
  };

  /// Snapshot of the active plan: the installed one, or an unarmed default.
  fault_plan snapshot() const;

  /// Evaluate the schedule for one syscall at `site` under plan `p`
  /// (advances the site counter and charges the budget on injection).
  decision next_with(const fault_plan& p, fault_site site);

  /// Convenience: snapshot() + next_with().
  decision next(fault_site site) { return next_with(snapshot(), site); }

  /// Install a plan and reset counters/budget.
  void install(const fault_plan& p);
  /// Drop the installed plan (back to injecting nothing); reset counters.
  void clear();
  /// Reset per-site counters and the injection budget only.
  void reset();

  bool overridden() const;
  /// Faults injected since the last install/clear/reset.
  std::size_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  static fault_injector& global();

 private:
  mutable mutex fault_mtx_ LOCK_RANK(fault_plan);
  fault_plan override_plan_ GUARDED_BY(fault_mtx_);
  bool use_override_ GUARDED_BY(fault_mtx_) = false;
  std::atomic<std::uint64_t> counters_[kNumFaultSites] = {};
  std::atomic<std::size_t> injected_{0};
};

/// RAII scope: installs `p` on construction and restores the previous
/// injector state (an installed plan, or none) on destruction.
class fault_scope {
 public:
  explicit fault_scope(const fault_plan& p);
  ~fault_scope();
  fault_scope(const fault_scope&) = delete;
  fault_scope& operator=(const fault_scope&) = delete;

 private:
  fault_plan prev_plan_;
  bool prev_overridden_;
};

/// Syscall shims: identical to ::pread/::pwrite, with the fault injector
/// consulted first. All engine storage I/O must go through these.
ssize_t fault_pread(int fd, char* buf, std::size_t len, off_t offset);
ssize_t fault_pwrite(int fd, const char* buf, std::size_t len, off_t offset);

/// Completion-delivery shim: the async I/O service calls this after a read's
/// data has landed, immediately before invoking its completion callback.
/// Evaluates the stall site and sleeps the injected delay on the calling
/// (I/O) thread; a no-op when the site is unarmed.
void fault_completion_stall();

}  // namespace flashr
