#include "obs/trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/raw_sink.h"
#include "common/thread_safety.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace flashr::obs {

namespace detail {
// The flight recorder is the engine's black box: ON from the first
// instruction (constant-initialized, before config init runs).
std::atomic<std::uint32_t> g_record_mask{kFlightBit};
}  // namespace detail

namespace {

/// Capacity of trace rings registered from now on (set_trace_enabled).
std::atomic<std::size_t> g_ring_events{std::size_t{1} << 16};

void set_mask_bit(std::uint32_t bit, bool on) {
  if (on)
    detail::g_record_mask.fetch_or(bit, std::memory_order_relaxed);
  else
    detail::g_record_mask.fetch_and(~bit, std::memory_order_relaxed);
}

}  // namespace

void set_trace_enabled(bool on, std::size_t ring_events) {
  g_ring_events.store(ring_events, std::memory_order_relaxed);
  set_mask_bit(detail::kTraceBit, on);
}

void set_flight_enabled(bool on) { set_mask_bit(detail::kFlightBit, on); }

namespace {

/// One 32-byte record: {ts_ns, name pointer, kind, arg}. The words are
/// relaxed atomics so a concurrent flush reading a slot the writer is
/// overwriting is a benign (and discarded — see trace_json) race, not UB.
struct trace_slot {
  std::atomic<std::uint64_t> w[4];
};
static_assert(sizeof(trace_slot) == 32, "trace records are 32 bytes");

struct trace_ring {
  explicit trace_ring(std::size_t cap) : slots(cap), mask(cap - 1) {}

  std::vector<trace_slot> slots;  // capacity fixed at registration
  const std::uint64_t mask;
  /// Monotonic record count; the writer stores slot words first, then
  /// publishes with a release store here. slots[i & mask] holds record i.
  std::atomic<std::uint64_t> head{0};
  int tid = 0;
  std::string name;  // thread label; written via registry lock or owner
};

struct trace_registry {
  mutex trace_mtx LOCK_RANK(trace_registry);
  std::vector<std::shared_ptr<trace_ring>> rings GUARDED_BY(trace_mtx);
  int next_tid GUARDED_BY(trace_mtx) = 1;
  /// Bumped by trace_clear(); threads re-register when their cached epoch
  /// is stale, so cleared rings are never written again.
  std::atomic<std::uint64_t> epoch{1};
  /// Dropped counts of rings discarded by trace_clear() (kept so
  /// trace_dropped() never goes backwards within an epoch... it resets).
};

trace_registry& registry() {
  static trace_registry* r = new trace_registry();  // leaked: rings must
  return *r;                                        // outlive exiting threads
}

struct tls_ring {
  std::shared_ptr<trace_ring> ring;
  std::uint64_t epoch = 0;
  std::string pending_name;  // set_thread_name before first event
};

thread_local tls_ring t_ring;

trace_ring& local_ring() {
  trace_registry& reg = registry();
  const std::uint64_t e = reg.epoch.load(std::memory_order_relaxed);
  if (t_ring.epoch != e) {
    std::size_t cap = g_ring_events.load(std::memory_order_relaxed);
    if (cap < 16) cap = 16;
    auto ring = std::make_shared<trace_ring>(cap);
    mutex_lock lock(reg.trace_mtx);
    ring->tid = reg.next_tid++;
    if (!t_ring.pending_name.empty()) ring->name = t_ring.pending_name;
    reg.rings.push_back(ring);
    t_ring.ring = std::move(ring);
    t_ring.epoch = e;
  }
  return *t_ring.ring;
}

// ---- flight recorder rings ------------------------------------------------
//
// Same 32-byte record, but a fixed small capacity, a fixed global registry
// (an atomic pointer array the crash handler can walk lock-free), and no
// epoch/clear semantics: rings live for the whole process, including past
// their owner thread's exit — the last seconds of a dead thread are exactly
// what a post-mortem wants. ~64 KiB per recording thread.

constexpr std::uint64_t kFlightCap = 2048;  // power of two
constexpr int kMaxFlightRings = 256;

struct flight_ring {
  trace_slot slots[kFlightCap] = {};
  std::atomic<std::uint64_t> head{0};
  unsigned os_tid = 0;
  /// Thread label. Written under the trace registry mutex (registration and
  /// set_thread_name); live readers (flight_collect) take the same mutex.
  /// The crash path reads it raw — a benign race, worst case a torn label.
  char name[32] = {};
};

std::atomic<flight_ring*> g_flight[kMaxFlightRings] = {};
std::atomic<int> g_flight_n{0};

thread_local flight_ring* t_flight = nullptr;

unsigned os_tid() noexcept {
  return static_cast<unsigned>(::syscall(SYS_gettid));
}

void flight_set_name(flight_ring& r, const char* name) {
  std::size_t n = std::strlen(name);
  if (n >= sizeof(r.name)) n = sizeof(r.name) - 1;
  std::memcpy(r.name, name, n);
  r.name[n] = '\0';
}

flight_ring& local_flight() {
  if (t_flight == nullptr) {
    auto* r = new flight_ring();  // leaked: outlives the thread on purpose
    r->os_tid = os_tid();
    {
      mutex_lock lock(registry().trace_mtx);
      if (!t_ring.pending_name.empty())
        flight_set_name(*r, t_ring.pending_name.c_str());
    }
    const int i = g_flight_n.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxFlightRings) {
      g_flight[i].store(r, std::memory_order_release);
      t_flight = r;
    } else {
      // Registry full: record into a shared overflow ring that is never
      // flushed. Torn records from concurrent writers are acceptable —
      // this only happens past 256 recording threads.
      delete r;
      static flight_ring* overflow = new flight_ring();
      t_flight = overflow;
    }
  }
  return *t_flight;
}

/// Copy a ring's live records into `out`, oldest first, and return how
/// many older ones were lost to wrap. Safe against a running writer: the
/// head is re-read after the copy and any record the writer may have
/// overwritten mid-copy is dropped, never decoded (slot words are relaxed
/// atomics, so the race is benign and TSan-clean).
std::uint64_t snapshot_ring(const trace_slot* slots, std::uint64_t mask,
                            const std::atomic<std::uint64_t>& head,
                            std::vector<flight_event>& out) {
  const std::uint64_t cap = mask + 1;
  const std::uint64_t h = head.load(std::memory_order_acquire);
  const std::uint64_t lo = h > cap ? h - cap : 0;
  out.clear();
  out.reserve(static_cast<std::size_t>(h - lo));
  for (std::uint64_t i = lo; i < h; ++i) {
    const trace_slot& s = slots[i & mask];
    flight_event ev;
    ev.ts_ns = s.w[0].load(std::memory_order_relaxed);
    ev.name = reinterpret_cast<const char*>(
        static_cast<std::uintptr_t>(s.w[1].load(std::memory_order_relaxed)));
    ev.kind = static_cast<event_kind>(s.w[2].load(std::memory_order_relaxed));
    ev.arg = s.w[3].load(std::memory_order_relaxed);
    out.push_back(ev);
  }
  const std::uint64_t h2 = head.load(std::memory_order_acquire);
  const std::uint64_t lo2 = h2 > cap ? h2 - cap : 0;
  const std::size_t skip = std::min<std::size_t>(
      lo2 > lo ? static_cast<std::size_t>(lo2 - lo) : 0, out.size());
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(skip));
  return lo + skip;
}

void append_event(std::string& out, const flight_event& ev, int tid) {
  char buf[160];
  out += "{\"name\":\"";
  json::escape(out, ev.name == nullptr ? "?" : ev.name);
  std::snprintf(buf, sizeof(buf),
                "\",\"cat\":\"flashr\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f",
                event_ph(ev.kind), tid, static_cast<double>(ev.ts_ns) / 1e3);
  out += buf;
  if (ev.kind == event_kind::instant) out += ",\"s\":\"t\"";
  if (ev.kind != event_kind::end) {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"v\":%" PRIu64 "}", ev.arg);
    out += buf;
  }
  out += "}";
}

/// Steady-state record path: four relaxed stores and one release publish
/// into a ring that already exists. Lock-free and allocation-free, so it
/// is safe from any context, including async-I/O completions — and the
/// analyzer holds it to that. Shared by the trace and flight rings.
void record_slot(trace_slot* slots, std::uint64_t mask,
                 std::atomic<std::uint64_t>& head, event_kind kind,
                 const char* name, std::uint64_t arg,
                 std::uint64_t ts_ns) FLASHR_NONBLOCKING;

void record_slot(trace_slot* slots, std::uint64_t mask,
                 std::atomic<std::uint64_t>& head, event_kind kind,
                 const char* name, std::uint64_t arg, std::uint64_t ts_ns) {
  const std::uint64_t i = head.load(std::memory_order_relaxed);
  trace_slot& s = slots[i & mask];
  s.w[0].store(ts_ns, std::memory_order_relaxed);
  s.w[1].store(reinterpret_cast<std::uintptr_t>(name),
               std::memory_order_relaxed);
  s.w[2].store(static_cast<std::uint64_t>(kind), std::memory_order_relaxed);
  s.w[3].store(arg, std::memory_order_relaxed);
  head.store(i + 1, std::memory_order_release);
}

}  // namespace

// Blocking-exempt rationale: the slow path (local_ring/local_flight)
// registers this thread's ring(s) — one allocation plus the registry lock,
// once per thread per epoch. Threads that enter nonblocking contexts (the
// I/O service threads) pre-register via ensure_thread_ring() at startup, so
// in steady state emit() from a completion is record_slot() alone.
FLASHR_BLOCKING_EXEMPT(
    "once-per-thread ring registration; I/O threads pre-register via "
    "ensure_thread_ring")
void emit(event_kind kind, const char* name, std::uint64_t arg,
          std::uint64_t ts_ns, std::uint32_t rings) {
  const std::uint32_t m =
      detail::g_record_mask.load(std::memory_order_relaxed) & rings;
  if ((m & detail::kTraceBit) != 0) {
    trace_ring& r = local_ring();
    record_slot(r.slots.data(), r.mask, r.head, kind, name, arg, ts_ns);
  }
  if ((m & detail::kFlightBit) != 0) {
    flight_ring& r = local_flight();
    record_slot(r.slots, kFlightCap - 1, r.head, kind, name, arg, ts_ns);
  }
}

namespace detail {

histogram* hist_if_on(histogram& (*f)()) { return metrics_on() ? &f() : nullptr; }

std::uint64_t probe_begin(const char* name, std::uint64_t arg,
                          std::uint32_t rings) {
  const std::uint64_t t0 = now_ns();
  if (rings != 0) emit(event_kind::begin, name, arg, t0, rings);
  return t0;
}

std::uint64_t probe_end(const char* name, std::uint32_t rings,
                        std::uint64_t t0, std::uint64_t* acc, histogram* hist) {
  const std::uint64_t t1 = now_ns();
  if (rings != 0) emit(event_kind::end, name, 0, t1, rings);
  const std::uint64_t ns = t1 - t0;
  if (acc != nullptr) *acc += ns;
  if (hist != nullptr) hist->record(ns / 1000);
  return ns;
}

}  // namespace detail

void ensure_thread_ring() {
  if (trace_on()) (void)local_ring();
  if (flight_on()) (void)local_flight();
}

void set_thread_name(const char* name) {
  t_ring.pending_name = name;
  if (t_ring.ring || t_flight != nullptr) {
    mutex_lock lock(registry().trace_mtx);
    if (t_ring.ring) t_ring.ring->name = name;
    if (t_flight != nullptr) flight_set_name(*t_flight, name);
  }
  // Every named engine thread is also a sampler track; the sampler copies
  // the name and records this thread's stack bounds for its stack walk.
  sampler_thread_attach(name);
}

const char* event_ph(event_kind k) {
  switch (k) {
    case event_kind::begin: return "B";
    case event_kind::end: return "E";
    case event_kind::counter: return "C";
    case event_kind::instant: return "i";
  }
  return "i";
}

std::string trace_json(trace_summary* summary) {
  trace_summary sum;
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit_line = [&](const std::string& line) {
    if (!first) out += ",\n";
    out += line;
    first = false;
  };

  trace_registry& reg = registry();
  mutex_lock lock(reg.trace_mtx);
  std::vector<flight_event> evs;
  for (const auto& ring : reg.rings) {
    sum.dropped += snapshot_ring(ring->slots.data(), ring->mask, ring->head,
                                 evs);
    // Thread metadata first, so Perfetto labels the track.
    {
      std::string name = ring->name.empty()
                             ? "thread-" + std::to_string(ring->tid)
                             : ring->name;
      std::string line = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                         "\"tid\":" + std::to_string(ring->tid) +
                         ",\"args\":{\"name\":\"";
      json::escape(line, name);
      line += "\"}}";
      emit_line(line);
    }

    // Balanced spans, so the JSON always is: ends whose begin was
    // overwritten are dropped, spans still open at flush are closed.
    std::string line;
    pair_spans(evs, [&](const flight_event& ev, bool) {
      line.clear();
      append_event(line, ev, ring->tid);
      emit_line(line);
      ++sum.events;
    });

    ++sum.threads;
  }

  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "\n],\"otherData\":{\"dropped\":%zu,\"threads\":%zu}}\n",
                sum.dropped, sum.threads);
  out += tail;
  if (summary != nullptr) *summary = sum;
  return out;
}

trace_summary write_trace(const std::string& path) {
  trace_summary sum;
  const std::string json = trace_json(&sum);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    FLASHR_WARN("obs: cannot write trace to %s", path.c_str());
    return trace_summary{};
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return sum;
}

void trace_clear() {
  trace_registry& reg = registry();
  mutex_lock lock(reg.trace_mtx);
  reg.rings.clear();
  reg.next_tid = 1;
  reg.epoch.fetch_add(1, std::memory_order_relaxed);
}

std::size_t trace_dropped() {
  trace_registry& reg = registry();
  mutex_lock lock(reg.trace_mtx);
  std::size_t dropped = 0;
  for (const auto& ring : reg.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > ring->mask + 1) dropped += head - (ring->mask + 1);
  }
  return dropped;
}

std::vector<flight_track> flight_collect(std::uint64_t since_ns) {
  std::vector<flight_track> out;
  int n = g_flight_n.load(std::memory_order_acquire);
  if (n > kMaxFlightRings) n = kMaxFlightRings;
  for (int ri = 0; ri < n; ++ri) {
    flight_ring* r = g_flight[ri].load(std::memory_order_acquire);
    if (r == nullptr) continue;  // registration mid-publish
    flight_track track;
    track.os_tid = r->os_tid;
    {
      mutex_lock lock(registry().trace_mtx);  // name writers hold this too
      track.name.assign(r->name, strnlen(r->name, sizeof(r->name)));
    }

    std::vector<flight_event> evs;
    track.dropped = snapshot_ring(r->slots, kFlightCap - 1, r->head, evs);
    for (const flight_event& ev : evs)
      if (ev.ts_ns >= since_ns) track.events.push_back(ev);
    out.push_back(std::move(track));
  }
  return out;
}

FLASHR_SIGNAL_SAFE void flight_dump_raw(raw_sink& sink) noexcept {
  // Static buffers: the crash path must not allocate or grow the stack;
  // the dump-once guard in crash_handler.cpp means a single writer.
  static std::uint64_t snap[kFlightCap * 4];
  static const char* strs[1024];
  int n_strs = 0;

  int n = g_flight_n.load(std::memory_order_relaxed);
  if (n > kMaxFlightRings) n = kMaxFlightRings;
  for (int ri = 0; ri < n; ++ri) {
    flight_ring* r = g_flight[ri].load(std::memory_order_relaxed);
    if (r == nullptr) continue;
    const std::uint64_t head = r->head.load(std::memory_order_relaxed);
    const std::uint64_t lo = head > kFlightCap ? head - kFlightCap : 0;
    const std::uint64_t count = head - lo;
    for (std::uint64_t i = 0; i < count; ++i) {
      const trace_slot& s = r->slots[(lo + i) & (kFlightCap - 1)];
      for (int w = 0; w < 4; ++w)
        snap[i * 4 + w] = s.w[w].load(std::memory_order_relaxed);
      // Intern the name pointer (linear-scan dedupe; names are few).
      const char* nm = reinterpret_cast<const char*>(
          static_cast<std::uintptr_t>(snap[i * 4 + 1]));
      if (nm != nullptr) {
        bool seen = false;
        for (int k = 0; k < n_strs; ++k)
          if (strs[k] == nm) { seen = true; break; }
        if (!seen && n_strs < 1024) strs[n_strs++] = nm;
      }
    }
    sink_tag(sink, "FRNG", 4 + 4 + 32 + 8 + 8 + 8 + count * 32);
    sink_u32(sink, r->os_tid);
    sink_u32(sink, 0);
    sink_put(sink, r->name, 32);
    sink_u64(sink, kFlightCap);
    sink_u64(sink, head);
    sink_u64(sink, count);
    for (std::uint64_t i = 0; i < count * 4; ++i) sink_u64(sink, snap[i]);
  }

  std::uint64_t payload = 4;
  for (int k = 0; k < n_strs; ++k) payload += 12 + std::strlen(strs[k]);
  sink_tag(sink, "STRT", payload);
  sink_u32(sink, static_cast<std::uint32_t>(n_strs));
  for (int k = 0; k < n_strs; ++k) {
    const std::size_t len = std::strlen(strs[k]);
    sink_u64(sink, reinterpret_cast<std::uintptr_t>(strs[k]));
    sink_u32(sink, static_cast<std::uint32_t>(len));
    sink_put(sink, strs[k], len);
  }
}

}  // namespace flashr::obs
