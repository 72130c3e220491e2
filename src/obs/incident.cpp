#include "obs/incident.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/json.h"
#include "common/log.h"
#include "common/timer.h"
#include "core/exec.h"
#include "core/governor.h"
#include "io/async_io.h"
#include "obs/artifact_dir.h"
#include "obs/crash_handler.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace flashr::obs {

namespace {

// ---- trigger slots -------------------------------------------------------
//
// The request path runs under the watchdog lock, in nonblocking
// completion contexts and inside signal handlers, so it may only touch this
// fixed lock-free state: CAS a slot from free to writing, fill it, publish
// it ready, poke the self-pipe. The monitor owns the ready->free transition.

constexpr int kSlots = 8;
constexpr std::size_t kDetailMax = 240;

struct trigger_slot {
  std::atomic<int> state{0};  ///< 0 free, 1 writing (claimed), 2 ready
  std::atomic<int> kind{0};
  std::atomic<std::uint64_t> ts_ns{0};
  char detail[kDetailMax] = {};  ///< written only while state == 1
};

trigger_slot g_slots[kSlots];

/// Write end of the monitor's self-pipe. Created once on the first arm and
/// kept for the process lifetime (never closed): the request path loads the
/// fd lock-free, and closing it would race fd reuse against a concurrent
/// trigger. Disarm gates requests with g_armed instead.
std::atomic<int> g_pipe_wr{-1};

/// Counter refs resolved once: registration locks the metrics registry,
/// which the lock-free request path must never do.
std::atomic<counter*> g_ctr_requests{nullptr};
std::atomic<counter*> g_ctr_dropped{nullptr};
std::atomic<counter*> g_ctr_bundles{nullptr};

// ---- arm/disarm state ----------------------------------------------------

mutex g_mtx LOCK_RANK(incident);
std::string g_dir;               // guarded by g_mtx
std::thread g_monitor;           // guarded by g_mtx
int g_pipe_rd = -1;              // guarded by g_mtx; lives forever once made
std::atomic<bool> g_stop{false};
std::atomic<bool> g_armed{false};

/// Raw CLOCK_MONOTONIC read for the trigger path: same epoch as now_ns()
/// (libstdc++ steady_clock) but free of <chrono> so the signal-safe
/// subgraph stays trivially analyzable.
std::uint64_t mono_ns() noexcept FLASHR_SIGNAL_SAFE;
std::uint64_t mono_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---- small JSON helpers --------------------------------------------------

/// Quoted JSON string for a C-string name; a null name (a record torn by a
/// concurrent writer) prints as "".
void json_str(std::string& out, const char* s) {
  json::quote(out, s != nullptr ? s : "");
}

// ---- bundle sections -----------------------------------------------------

std::string build_json() {
  std::string out = "{\"compiler\":";
  json_str(out, __VERSION__);
  out += ",\"built\":\"" __DATE__ " " __TIME__ "\"";
  out += ",\"pid\":" + std::to_string(static_cast<long>(::getpid()));
  out += ",\"invariants\":";
  out += invariants_enabled() ? "true" : "false";
  out += "}";
  return out;
}

std::string config_json() {
  const options& o = conf();
  std::string out = "{";
  auto num = [&out](const char* k, std::uint64_t v, bool comma = true) {
    out += '"';
    out += k;
    out += "\":" + std::to_string(v);
    if (comma) out += ',';
  };
  auto str = [&out](const char* k, const std::string& v) {
    out += '"';
    out += k;
    out += "\":";
    json::quote(out, v);
    out += ',';
  };
  auto boolean = [&out](const char* k, bool v) {
    out += '"';
    out += k;
    out += v ? "\":true," : "\":false,";
  };
  num("num_threads", static_cast<std::uint64_t>(o.num_threads));
  num("io_threads", static_cast<std::uint64_t>(o.io_threads));
  num("io_part_rows", o.io_part_rows);
  num("pcache_bytes", o.pcache_bytes);
  str("em_dir", o.em_dir);
  num("stripes", static_cast<std::uint64_t>(o.stripes));
  str("mode", exec_mode_name(o.mode));
  num("prefetch_depth", static_cast<std::uint64_t>(
                            o.prefetch_depth < 0 ? 0 : o.prefetch_depth));
  num("max_inflight_write_bytes", o.max_inflight_write_bytes);
  num("mem_budget_bytes", o.mem_budget_bytes);
  num("pass_deadline_ms", o.pass_deadline_ms);
  num("watchdog_stall_ms", o.watchdog_stall_ms);
  num("io_max_retries", static_cast<std::uint64_t>(o.io_max_retries));
  str("io_checksum", checksum_policy_name(o.io_checksum));
  boolean("obs_trace", o.obs_trace);
  boolean("obs_metrics", o.obs_metrics);
  boolean("obs_profile", o.obs_profile);
  boolean("obs_flight", o.obs_flight);
  num("obs_flight_secs", static_cast<std::uint64_t>(o.obs_flight_secs));
  str("incident_dir", o.incident_dir);
  num("incident_max_bundles",
      static_cast<std::uint64_t>(o.incident_max_bundles), false);
  out += "}";
  return out;
}

/// The pre-serialized crash-handler STAT payload.
std::string static_json() {
  return "{\"build\":" + build_json() + ",\"config\":" + config_json() + "}";
}

void ensure_counters() {
  if (g_ctr_requests.load(std::memory_order_acquire) != nullptr) return;
  metrics_registry& reg = metrics_registry::global();
  counter* dropped = &reg.get_counter("incident.dropped");
  counter* bundles = &reg.get_counter("incident.bundles");
  counter* requests = &reg.get_counter("incident.requests");
  g_ctr_dropped.store(dropped, std::memory_order_release);
  g_ctr_bundles.store(bundles, std::memory_order_release);
  // Last: the request path keys "counters ready" off this one.
  g_ctr_requests.store(requests, std::memory_order_release);
}

// ---- bundle writer -------------------------------------------------------

/// Lexicographic order == chronological order: the filename embeds the
/// zero-padded monotonic timestamp.
void make_bundle_name(char* buf, std::size_t cap, std::uint64_t ts,
                      incident_kind kind) {
  std::snprintf(buf, cap, "incident-%020llu-%s.json",
                static_cast<unsigned long long>(ts),
                incident_kind_name(kind));
}

/// Write one bundle into `dir`, then prune the directory's bundles to
/// conf().incident_max_bundles. Crash dumps (crash-*.bin) are never pruned:
/// there is at most one per process life, and it is the file you least
/// want a retention policy to eat. Returns the bundle filename or "" on
/// failure. Never throws — the monitor must survive anything the
/// composition path does.
std::string write_bundle_to(const std::string& dir, incident_kind kind,
                            const char* detail,
                            std::uint64_t trigger_ns) noexcept {
  std::string body;
  try {
    body = incident_bundle_json(kind, detail, trigger_ns);
  } catch (const std::exception& e) {
    // Still produce a bundle: the trigger and the reason composition failed
    // are better than nothing.
    body = "{\"schema\":\"flashr-incident-v1\",\"trigger\":{\"kind\":\"";
    body += incident_kind_name(kind);
    body += "\",\"ts_ns\":" + std::to_string(trigger_ns);
    body += "},\"compose_error\":";
    json_str(body, e.what());
    body += "}";
  }
  body += "\n";

  char name[64];
  make_bundle_name(name, sizeof(name), trigger_ns, kind);
  if (!artifact_write(dir, name, body)) return "";
  if (counter* c = g_ctr_bundles.load(std::memory_order_acquire)) c->add(1);
  FLASHR_WARN("incident: wrote bundle %s (%s)", name,
              incident_kind_name(kind));
  artifact_prune(dir, "incident-", ".json",
                 static_cast<std::size_t>(conf().incident_max_bundles));
  return name;
}

// ---- monitor thread ------------------------------------------------------

void monitor_loop(int pipe_rd, std::string dir) {
  set_thread_name("incident");
  ensure_thread_ring();
  for (unsigned tick = 0;; ++tick) {
    pollfd p{pipe_rd, POLLIN, 0};
    const int ready = ::poll(&p, 1, /*timeout_ms=*/250);
    if (ready > 0) {
      char buf[64];
      while (::read(pipe_rd, buf, sizeof(buf)) > 0) {
      }
    }
    // Read stop BEFORE draining so triggers filed before disarm still get
    // their bundle (disarm pokes the pipe after setting stop).
    const bool stopping = g_stop.load(std::memory_order_acquire);
    for (trigger_slot& s : g_slots) {
      if (s.state.load(std::memory_order_acquire) != 2) continue;
      const auto kind =
          static_cast<incident_kind>(s.kind.load(std::memory_order_relaxed));
      const std::uint64_t ts = s.ts_ns.load(std::memory_order_relaxed);
      char detail[kDetailMax];
      std::memcpy(detail, s.detail, kDetailMax);
      detail[kDetailMax - 1] = '\0';
      s.state.store(0, std::memory_order_release);
      write_bundle_to(dir, kind, detail, ts);
    }
    if (stopping) break;
    // Keep the crash handler's pre-serialized sections fresh (~2 s cadence:
    // 8 poll ticks) so a SIGSEGV dump carries near-current config/metrics.
    if (tick % 8 == 0) {
      crash_refresh_static(static_json());
      crash_stage_metrics(metrics_registry::global().to_json());
    }
  }
}

void on_sigusr2(int) FLASHR_SIGNAL_SAFE;
void on_sigusr2(int) {
  incident_request(incident_kind::manual, "SIGUSR2");
}

void install_sigusr2() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigusr2;
  sa.sa_flags = SA_RESTART;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGUSR2, &sa, nullptr);
}

}  // namespace

const char* incident_kind_name(incident_kind k) noexcept {
  switch (k) {
    case incident_kind::manual: return "manual";
    case incident_kind::watchdog_trip: return "watchdog-trip";
    case incident_kind::governor_overload: return "governor-overload";
    case incident_kind::invariant_abort: return "invariant-abort";
    case incident_kind::lock_rank_abort: return "lock-rank-abort";
    case incident_kind::io_exhausted: return "io-exhausted";
    case incident_kind::checksum: return "checksum";
  }
  return "unknown";
}

void incident_request(incident_kind kind, const char* detail) noexcept {
  if (counter* c = g_ctr_requests.load(std::memory_order_acquire)) c->add(1);
  counter* dropped = g_ctr_dropped.load(std::memory_order_acquire);
  if (!g_armed.load(std::memory_order_acquire)) {
    if (dropped != nullptr) dropped->add(1);
    return;
  }
  const int fd = g_pipe_wr.load(std::memory_order_acquire);
  if (fd < 0) {
    if (dropped != nullptr) dropped->add(1);
    return;
  }
  for (int i = 0; i < kSlots; ++i) {
    trigger_slot& s = g_slots[i];
    int expected = 0;
    if (!s.state.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
      continue;
    s.kind.store(static_cast<int>(kind), std::memory_order_relaxed);
    s.ts_ns.store(mono_ns(), std::memory_order_relaxed);
    std::size_t n = 0;
    if (detail != nullptr) {
      while (n + 1 < kDetailMax && detail[n] != '\0') {
        s.detail[n] = detail[n];
        ++n;
      }
    }
    s.detail[n] = '\0';
    s.state.store(2, std::memory_order_release);
    const char b = 1;
    (void)!::write(fd, &b, 1);
    return;
  }
  // Every slot busy: a trigger storm. The first bundles tell the story.
  if (dropped != nullptr) dropped->add(1);
}

void incident_register_metrics() { ensure_counters(); }

bool incident_arm(const std::string& dir) {
  if (!artifact_dir_open(dir)) return false;
  incident_disarm();  // re-arm switches directories
  ensure_counters();
  crash_arm(dir);
  crash_refresh_static(static_json());
  {
    mutex_lock lock(g_mtx);
    if (g_pipe_rd < 0) {
      int fds[2];
      if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        FLASHR_WARN("incident: pipe2 failed (errno %d)", errno);
        return false;
      }
      g_pipe_rd = fds[0];
      // Published once, never closed: the lock-free request path reads it.
      g_pipe_wr.store(fds[1], std::memory_order_release);
    }
    g_dir = dir;
    g_stop.store(false, std::memory_order_release);
    g_monitor = std::thread(monitor_loop, g_pipe_rd, dir);
  }
  g_armed.store(true, std::memory_order_release);
  install_sigusr2();
  // Join the monitor at process exit: g_monitor is a global std::thread,
  // and destroying it joinable would std::terminate. Registered on first
  // arm (after the globals above are constructed), so the handler runs
  // before their destructors.
  static const bool at_exit = [] {
    std::atexit([] { incident_disarm(); });
    return true;
  }();
  (void)at_exit;
  FLASHR_INFO("incident: armed, bundles in %s", dir.c_str());
  return true;
}

void incident_disarm() {
  std::thread t;
  {
    mutex_lock lock(g_mtx);
    g_armed.store(false, std::memory_order_release);
    g_dir.clear();
    if (g_monitor.joinable()) {
      g_stop.store(true, std::memory_order_release);
      const int wr = g_pipe_wr.load(std::memory_order_acquire);
      if (wr >= 0) {
        const char b = 1;
        (void)!::write(wr, &b, 1);
      }
      t = std::move(g_monitor);
    }
  }
  if (t.joinable()) t.join();
  crash_disarm();
}

std::string flight_json(std::uint64_t since_ns) {
  const std::vector<flight_track> tracks = flight_collect(since_ns);
  std::string out = "{\"since_ns\":" + std::to_string(since_ns);
  out += ",\"threads\":[";
  bool first_track = true;
  for (const flight_track& t : tracks) {
    if (!first_track) out += ',';
    first_track = false;
    out += "{\"tid\":" + std::to_string(t.os_tid) + ",\"name\":";
    json::quote(out, t.name);
    out += ",\"dropped\":" + std::to_string(t.dropped) + ",\"events\":[";
    // Balanced like trace_json: an end whose begin fell off the ring (or
    // predates the window) is dropped; spans still open at snapshot get
    // synthetic ends at the last seen timestamp.
    bool first_ev = true;
    pair_spans(t.events, [&](const flight_event& e, bool synthetic) {
      if (!first_ev) out += ',';
      first_ev = false;
      out += "{\"ts_ns\":" + std::to_string(e.ts_ns) + ",\"name\":";
      json_str(out, e.name);
      out += ",\"ph\":\"";
      out += event_ph(e.kind);
      out += "\",\"arg\":" + std::to_string(e.arg);
      out += synthetic ? ",\"synthetic\":true}" : "}";
    });
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string stacks_json() {
  constexpr int kMaxThreads = 256;
  std::vector<flashr::detail::thread_ranks> ranks(kMaxThreads);
  const int nranks =
      flashr::detail::held_ranks_all_threads(ranks.data(), kMaxThreads);

  // Innermost open span per thread, from the flight recorder.
  struct open_span {
    const char* name = nullptr;
    std::uint64_t since = 0;
  };
  struct thread_view {
    unsigned tid = 0;
    std::string name;
    open_span span;
    const flashr::detail::thread_ranks* held = nullptr;
  };
  std::vector<thread_view> views;
  for (const flight_track& t : flight_collect(0)) {
    thread_view v;
    v.tid = t.os_tid;
    v.name = t.name;
    const flight_event* open =
        pair_spans(t.events, [](const flight_event&, bool) {});
    if (open != nullptr) v.span = {open->name, open->ts_ns};
    views.push_back(std::move(v));
  }
  for (int i = 0; i < nranks; ++i) {
    bool matched = false;
    for (thread_view& v : views) {
      if (v.tid == ranks[i].tid) {
        v.held = &ranks[i];
        matched = true;
        break;
      }
    }
    if (!matched) {
      thread_view v;
      v.tid = ranks[i].tid;
      v.held = &ranks[i];
      views.push_back(std::move(v));
    }
  }

  std::string out = "{\"threads\":[";
  bool first = true;
  for (const thread_view& v : views) {
    if (!first) out += ',';
    first = false;
    out += "{\"tid\":" + std::to_string(v.tid) + ",\"name\":";
    json::quote(out, v.name);
    out += ",\"ranks\":[";
    if (v.held != nullptr) {
      const int depth = std::min(v.held->depth, 16);
      for (int j = 0; j < depth; ++j) {
        if (j > 0) out += ',';
        out += "{\"value\":" + std::to_string(v.held->values[j]) +
               ",\"name\":";
        json_str(out, v.held->names[j]);
        out += "}";
      }
    }
    out += "],\"span\":";
    if (v.span.name != nullptr) {
      out += "{\"name\":";
      json_str(out, v.span.name);
      out += ",\"since_ns\":" + std::to_string(v.span.since) + "}";
    } else {
      out += "null";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string incident_bundle_json(incident_kind kind, const char* detail,
                                 std::uint64_t trigger_ns) {
  const std::uint64_t now = now_ns();
  const options& o = conf();

  std::string out = "{\"schema\":\"flashr-incident-v1\"";
  out += ",\"trigger\":{\"kind\":\"";
  out += incident_kind_name(kind);
  out += "\",\"detail\":";
  json_str(out, detail == nullptr ? "" : detail);
  out += ",\"ts_ns\":" + std::to_string(trigger_ns) + "}";
  out += ",\"time\":{\"mono_ns\":" + std::to_string(now) +
         ",\"real_ns\":" + std::to_string(realtime_ns()) + "}";
  out += ",\"build\":" + build_json();
  out += ",\"config\":" + config_json();

  const std::uint64_t window =
      static_cast<std::uint64_t>(o.obs_flight_secs) * 1000000000ull;
  out += ",\"flight\":" + flight_json(now > window ? now - window : 0);
  out += ",\"stacks\":" + stacks_json();

  out += ",\"passes\":{\"active\":" + exec::active_passes_json();
  out += ",\"last\":" + exec::last_pass_stats().to_json();
  out += ",\"history\":" + profile_history_json() + "}";

  out += ",\"governor\":" + exec::resource_governor::global().health().to_json();

  // The section keeps its flashr-incident-v1 name and shape: the pread/
  // pwrite thread pool is the engine's one I/O service.
  out += ",\"io_backend\":{\"name\":\"threads\",\"snapshot\":" +
         async_io::global().debug_snapshot() + "}";

  out += ",\"metrics\":" + metrics_registry::global().to_json();

  // SAMP: the sampling profiler's trailing ~5s of folded stacks — what the
  // process was actually doing when the trigger fired. Empty folded list
  // when the sampler is off (the counters still report that fact).
  {
    const sampler_counters sc = sampler_stats();
    out += ",\"samples\":{\"hz\":" + std::to_string(sc.hz);
    out += ",\"samples\":" + std::to_string(sc.samples);
    out += ",\"dropped\":" + std::to_string(sc.dropped);
    out += ",\"window_ns\":5000000000";
    out += ",\"folded\":[";
    const std::string folded = folded_recent(5000000000ull);
    bool first_line = true;
    std::size_t pos = 0;
    while (pos < folded.size()) {
      std::size_t eol = folded.find('\n', pos);
      if (eol == std::string::npos) eol = folded.size();
      if (eol > pos) {
        if (!first_line) out += ',';
        first_line = false;
        json::quote(out, folded.substr(pos, eol - pos));
      }
      pos = eol + 1;
    }
    out += "]}";
  }

  out += ",\"log_tail\":[";
  bool first = true;
  for (const std::string& line : log_tail(64)) {
    if (!first) out += ',';
    first = false;
    json::quote(out, line);
  }
  out += "]}";
  return out;
}

std::string incident_write_bundle(incident_kind kind, const char* detail) {
  std::string dir;
  {
    mutex_lock lock(g_mtx);
    dir = g_dir;
  }
  if (dir.empty()) return "";
  return write_bundle_to(dir, kind, detail, now_ns());
}

}  // namespace flashr::obs
