#include "core/governor.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <cstdio>

#include "common/config.h"
#include "common/error.h"
#include "common/timer.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace flashr::exec {

namespace {

obs::counter& admitted_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.admitted");
  return c;
}
obs::counter& degrade_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.degrade_steps");
  return c;
}
obs::counter& reject_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.rejects");
  return c;
}
obs::counter& deadline_trip_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.deadline_trips");
  return c;
}
obs::counter& stall_trip_counter() {
  static obs::counter& c =
      obs::metrics_registry::global().get_counter("governor.stall_trips");
  return c;
}

/// Poll period for hung-I/O checks: fine enough to trip within a fraction
/// of the stall bound, coarse enough to keep the watchdog invisible.
std::uint64_t stall_poll_ns(std::uint64_t stall_ns) {
  return std::clamp<std::uint64_t>(stall_ns / 4, 1000000ull, 100000000ull);
}

}  // namespace

// ---------------------------------------------------------------------------
// resource_governor
// ---------------------------------------------------------------------------

resource_governor::health_snapshot resource_governor::health() const {
  health_snapshot h;
  h.mem_budget_bytes = conf().mem_budget_bytes;
  h.degraded_passes = degraded_.load(std::memory_order_relaxed);
  h.tripped_passes = tripped_.load(std::memory_order_relaxed);
  if (h.tripped_passes > 0)
    h.reason = "watchdog tripped a running pass";
  else if (h.degraded_passes > 0)
    h.reason = "passes running degraded";
  h.ok = h.reason.empty();
  return h;
}

std::string resource_governor::health_snapshot::to_json() const {
  std::string s = "{\"ok\": ";
  s += ok ? "true" : "false";
  s += ", \"reason\": \"" + reason + "\"";
  s += ", \"mem_budget_bytes\": " + std::to_string(mem_budget_bytes);
  s += ", \"degraded_passes\": " + std::to_string(degraded_passes);
  s += ", \"tripped_passes\": " + std::to_string(tripped_passes);
  s += "}";
  return s;
}

void resource_governor::count_admitted() { admitted_counter().add(1); }
void resource_governor::count_degrade_step() { degrade_counter().add(1); }
void resource_governor::count_reject() { reject_counter().add(1); }

resource_governor& resource_governor::global() {
  // Leaked (monitoring probes may read it at process exit); the probes keep
  // the governor's own state canonical and the registry a view of it.
  static resource_governor* g = [] {
    auto* gov = new resource_governor();
    auto& reg = obs::metrics_registry::global();
    reg.register_probe("governor.degraded_passes", [gov] {
      return static_cast<std::uint64_t>(
          gov->degraded_.load(std::memory_order_relaxed));
    });
    reg.register_probe("governor.tripped_passes", [gov] {
      return static_cast<std::uint64_t>(
          gov->tripped_.load(std::memory_order_relaxed));
    });
    return gov;
  }();
  return *g;
}

// ---------------------------------------------------------------------------
// pass_watchdog
// ---------------------------------------------------------------------------

pass_watchdog::pass_watchdog() {
  // The supervision thread lives for the process (the singleton is leaked);
  // with no entries it parks on the cv and touches nothing else.
  std::thread([this] { loop(); }).detach();
}

std::uint64_t pass_watchdog::watch(std::uint64_t pass_id,
                                   std::uint64_t deadline_ns,
                                   std::uint64_t deadline_ms,
                                   std::uint64_t stall_ns,
                                   std::uint64_t stall_ms,
                                   progress_fn progress, cancel_fn cancel) {
  if (deadline_ns == 0 && stall_ns == 0) return 0;
  entry e;
  e.pass_id = pass_id;
  e.start_ns = now_ns();
  e.deadline_ns = deadline_ns;
  e.deadline_ms = deadline_ms;
  e.stall_ns = stall_ns;
  e.stall_ms = stall_ms;
  e.progress = std::move(progress);
  e.cancel = std::move(cancel);
  std::uint64_t token;
  {
    mutex_lock lock(wd_mtx_);
    token = next_token_++;
    entries_.emplace(token, std::move(e));
  }
  cv_.notify_all();
  return token;
}

void pass_watchdog::unwatch(std::uint64_t token) {
  if (token == 0) return;
  mutex_lock lock(wd_mtx_);
  // If the watchdog is mid-cancel on this very entry (lock dropped for the
  // callback), wait it out: after erase the callbacks' referents may die.
  while (cancelling_ == token) cv_.wait(lock);
  auto it = entries_.find(token);
  if (it == entries_.end()) return;
  if (it->second.tripped) resource_governor::global().note_tripped_end();
  entries_.erase(it);
}

pass_watchdog::trip_decision pass_watchdog::check_entry(const entry& e,
                                                       std::uint64_t now) {
  trip_decision d;
  if (e.tripped) return d;
  if (e.deadline_ns != 0 && now >= e.deadline_ns) {
    // Elapsed is measured from the deadline's own epoch (the materialize
    // call), not from watch registration — earlier passes of the call run
    // in between, and callers reasonably expect elapsed >= limit on a
    // deadline trip.
    d.k = trip_decision::kind::deadline;
    d.elapsed_ns = now - e.deadline_ns + e.deadline_ms * 1000000ull;
    return d;
  }
  if (e.stall_ns != 0 && e.progress) {
    // Polling the pipeline under the watchdog lock is safe: the pipeline
    // never calls back into the watchdog, and the prefetch-window rank
    // (500) sits above the watchdog's (200), so the order is acyclic.
    const io_progress p = e.progress();
    if (p.inflight > 0) {
      const std::uint64_t base = std::max(p.last_completion_ns, e.start_ns);
      if (now > base && now - base >= e.stall_ns) {
        d.k = trip_decision::kind::stall;
        d.elapsed_ns = now - base;
      }
    }
  }
  return d;
}

void pass_watchdog::loop() {
  obs::set_thread_name("watchdog");
  mutex_lock lock(wd_mtx_);
  for (;;) {
    // Next instant any entry needs attention: deadlines exactly, stall
    // checks on a poll grid a quarter of their bound.
    std::uint64_t now = now_ns();
    std::uint64_t wake = 0;
    for (const auto& [tok, e] : entries_) {
      (void)tok;
      if (e.tripped) continue;
      if (e.deadline_ns != 0 && (wake == 0 || e.deadline_ns < wake))
        wake = e.deadline_ns;
      if (e.stall_ns != 0) {
        const std::uint64_t poll = now + stall_poll_ns(e.stall_ns);
        if (wake == 0 || poll < wake) wake = poll;
      }
    }
    if (wake == 0) {
      obs::sample_idle_scope idle;
      cv_.wait(lock);
      continue;
    }
    if (wake > now) {
      obs::sample_idle_scope idle;
      cv_.wait_for(lock, std::chrono::nanoseconds(wake - now));
    }

    // Trip at most one entry per iteration: the cancel callback runs with
    // the lock dropped, so the entry map may change under it. The poll
    // body itself (check_entry) is nonblocking; everything that allocates
    // — the typed error, the counters, the callback — happens out here.
    for (;;) {
      now = now_ns();
      std::uint64_t fire_tok = 0;
      cancel_fn cancel;
      std::exception_ptr err;
      for (auto& [tok, e] : entries_) {
        const trip_decision d = check_entry(e, now);
        if (d.k == trip_decision::kind::none) continue;
        // File the incident while wd_mtx_ is held — incident_request is
        // lock-free precisely for trigger sites like this one.
        char detail[160];
        if (d.k == trip_decision::kind::deadline) {
          err = std::make_exception_ptr(timeout_error(
              "pass deadline exceeded", e.pass_id, d.elapsed_ns,
              e.deadline_ms));
          deadline_trip_counter().add(1);
          std::snprintf(detail, sizeof(detail),
                        "watchdog: pass %llu deadline exceeded "
                        "(elapsed_ms=%llu limit_ms=%llu)",
                        static_cast<unsigned long long>(e.pass_id),
                        static_cast<unsigned long long>(d.elapsed_ns /
                                                        1000000),
                        static_cast<unsigned long long>(e.deadline_ms));
        } else {
          err = std::make_exception_ptr(timeout_error(
              "hung I/O: reads in flight with no completion", e.pass_id,
              d.elapsed_ns, e.stall_ms));
          stall_trip_counter().add(1);
          std::snprintf(detail, sizeof(detail),
                        "watchdog: pass %llu hung I/O (stalled_ms=%llu "
                        "bound_ms=%llu)",
                        static_cast<unsigned long long>(e.pass_id),
                        static_cast<unsigned long long>(d.elapsed_ns /
                                                        1000000),
                        static_cast<unsigned long long>(e.stall_ms));
        }
        obs::incident_request(obs::incident_kind::watchdog_trip, detail);
        e.tripped = true;
        fire_tok = tok;
        cancel = e.cancel;
        resource_governor::global().note_tripped_begin();
        break;
      }
      if (fire_tok == 0) break;
      cancelling_ = fire_tok;
      lock.unlock();
      cancel(err);
      lock.lock();
      cancelling_ = 0;
      cv_.notify_all();  // unwatch() may be waiting on the cancel
    }
  }
}

pass_watchdog& pass_watchdog::global() {
  static pass_watchdog* w = new pass_watchdog();  // leaked; see ctor comment
  return *w;
}

}  // namespace flashr::exec
