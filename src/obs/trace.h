// Per-thread lock-free trace rings and the probe that feeds them (the
// tracing third of src/obs/).
//
// Every thread that emits an event owns a fixed-capacity ring of 32-byte
// records (steady-clock ns timestamp, interned name pointer, event kind,
// one integer argument). Emission is wait-free for the owning thread: four
// relaxed atomic word stores plus one release store of the ring head. When
// the ring is full the writer simply keeps going — the oldest records are
// overwritten and counted as dropped, so tracing can stay on for a whole
// run without unbounded memory.
//
// Every timed instrumentation site holds one obs::probe (below). A probe
// stamps its interval once on entry and once on exit, and those two stamps
// are the whole record: the trace and flight rings get them as a span's
// begin and end, the pass profile (obs/profile.h) adds their difference to
// a node's kernel, copy or I/O-wait time, an I/O histogram (obs/metrics.h)
// records it, and the sampler (obs/sampler.h) keys samples taken inside it
// with the site's wait state. The trace therefore shows exactly what the
// profile times.
//
// write_trace() snapshots every ring and emits Chrome trace-event JSON
// (loadable in ui.perfetto.dev / chrome://tracing), one event per line.
// Span begin/end records are re-paired at flush: an `end` whose `begin` was
// overwritten is discarded, a span still open at flush gets a synthetic
// `end`, so the output is always balanced. Flushing concurrently with
// active writers is safe: the flusher re-reads the ring head after copying
// the slots and discards any record the writer might have overwritten
// mid-copy (slot words are relaxed atomics, so the race is benign and
// TSan-clean).
//
// Names must be pointers with static storage duration (string literals,
// node_kind_name() results, ...): the ring stores the pointer, not the
// bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/sampler.h"

namespace flashr {
struct raw_sink;  // common/raw_sink.h
}

namespace flashr::obs {

namespace detail {
/// Recording switches, packed into one word so every instrumentation site
/// pays a single relaxed load. Bit 0: full tracing (obs_trace — unbounded
/// observation window, Chrome JSON flush). Bit 1: the flight recorder
/// (obs_flight — small always-on rings for incident bundles; ON by
/// default, including before config init).
inline constexpr std::uint32_t kTraceBit = 1;
inline constexpr std::uint32_t kFlightBit = 2;
extern std::atomic<std::uint32_t> g_record_mask;
}  // namespace detail

/// Both rings: what emit() writes by default and a non-hot probe records to.
inline constexpr std::uint32_t kAllRings =
    detail::kTraceBit | detail::kFlightBit;

/// Whether full trace events are being collected (obs_trace).
inline bool trace_on() {
  return (detail::g_record_mask.load(std::memory_order_relaxed) &
          detail::kTraceBit) != 0;
}

/// Whether the always-on flight recorder is retaining events (obs_flight).
inline bool flight_on() {
  return (detail::g_record_mask.load(std::memory_order_relaxed) &
          detail::kFlightBit) != 0;
}

/// Whether any recorder wants events; the macros test this.
inline bool record_on() {
  return detail::g_record_mask.load(std::memory_order_relaxed) != 0;
}

/// Switch full tracing; `ring_events` is the capacity of trace rings
/// registered from now on (obs_ring_events). init() calls this; a thread
/// registering its ring reads the capacity from here, never from conf(),
/// which init() may be rewriting at that moment.
void set_trace_enabled(bool on, std::size_t ring_events);
void set_flight_enabled(bool on);

enum class event_kind : std::uint64_t {
  begin = 0,    ///< span open  (Chrome "ph":"B")
  end = 1,      ///< span close (Chrome "ph":"E")
  instant = 2,  ///< point event (Chrome "ph":"i")
  counter = 3,  ///< sampled value (Chrome "ph":"C") — renders as a graph
                ///< track (prefetch window occupancy, queue depths, ...)
};

/// The Chrome trace-event phase letter of `k`: "B", "E", "i" or "C".
const char* event_ph(event_kind k);

/// Append one record stamped `ts_ns` to each of `rings` that is on — the
/// trace ring, the flight-recorder ring, or both, per the record mask.
/// `name` must have static storage duration. Call only when record_on()
/// (the macros and probe below do).
void emit(event_kind kind, const char* name, std::uint64_t arg,
          std::uint64_t ts_ns, std::uint32_t rings = kAllRings);

/// Label the calling thread's ring in the flushed JSON ("worker-3", "io-0");
/// unnamed rings flush as "thread-<tid>". Cheap; callable before or after
/// the first event.
void set_thread_name(const char* name);

/// Force this thread's ring registration now (a no-op unless record_on();
/// registers the trace and/or flight ring per the mask). Threads that emit
/// from nonblocking contexts — the async-I/O service threads, whose
/// completions may trace — call this at startup so emit()'s once-per-thread
/// slow path (allocation + registry lock) never runs inside a completion.
void ensure_thread_ring();

/// What write_trace()/trace_json() flushed.
struct trace_summary {
  std::size_t events = 0;   ///< records emitted to the JSON
  std::size_t dropped = 0;  ///< records overwritten by ring wrap (oldest)
  std::size_t threads = 0;  ///< rings flushed
};

/// Serialize every ring as Chrome trace-event JSON. Returns the JSON and
/// fills `summary` when non-null.
std::string trace_json(trace_summary* summary = nullptr);

/// trace_json() to a file. Returns the summary; events == 0 with threads ==
/// 0 may also mean the file could not be written (a warning is logged).
trace_summary write_trace(const std::string& path);

/// Drop every ring (threads re-register on their next event, picking up the
/// capacity last passed to set_trace_enabled) and reset drop counters.
void trace_clear();

/// Records lost to ring wrap since the last trace_clear(), across all rings.
std::size_t trace_dropped();

// ---- flight recorder (always-on black box; see obs/incident.h) -----------

/// One decoded flight-recorder record.
struct flight_event {
  std::uint64_t ts_ns = 0;
  const char* name = nullptr;
  event_kind kind = event_kind::instant;
  std::uint64_t arg = 0;
};

/// One thread's flight-recorder tail: raw records in emission order,
/// filtered to ts_ns >= the requested window start. Span balancing is the
/// consumer's job (pair_spans below).
struct flight_track {
  unsigned os_tid = 0;      ///< OS thread id (gettid), 0 if unknown
  std::string name;         ///< thread label ("worker-3", "io-0", ...)
  std::uint64_t dropped = 0;  ///< records lost to ring wrap (ever)
  std::vector<flight_event> events;
};

/// Snapshot every thread's flight ring, keeping records with
/// ts_ns >= since_ns (0 = everything retained). Lock-free against writers
/// (same benign-race discipline as trace_json); rings of exited threads are
/// retained deliberately — their last seconds are post-mortem evidence.
std::vector<flight_track> flight_collect(std::uint64_t since_ns);

/// Walk one thread's records, oldest first, as balanced spans: the one
/// re-pairing trace_json(), flight_json() and stacks_json() share. An end
/// whose begin was lost (to ring wrap, or before the window) is dropped;
/// `on_record(ev, false)` sees every other record in order, then
/// `on_record(end, true)` one synthetic end (arg 0) per span still open,
/// innermost first, stamped with the last visited record's time. Returns
/// the begin record of the innermost span still open, or nullptr.
template <class F>
const flight_event* pair_spans(const std::vector<flight_event>& events,
                               F&& on_record) {
  std::vector<const flight_event*> open;
  std::uint64_t last_ts = 0;
  for (const flight_event& ev : events) {
    if (ev.kind == event_kind::end) {
      if (open.empty()) continue;  // its begin was lost
      open.pop_back();
    } else if (ev.kind == event_kind::begin) {
      open.push_back(&ev);
    }
    last_ts = ev.ts_ns;
    on_record(ev, false);
  }
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    flight_event close = **it;
    close.kind = event_kind::end;
    close.ts_ns = last_ts;
    close.arg = 0;
    on_record(close, true);
  }
  return open.empty() ? nullptr : open.back();
}

/// Crash-path dump of every flight ring as FRNG sections plus one STRT
/// string table (interned name bytes, keyed by pointer), in the crash-dump
/// binary format (obs/crash_handler.h). Async-signal-safe: relaxed atomic
/// reads into static snapshot buffers, no locks, no allocation.
void flight_dump_raw(raw_sink& sink) noexcept;

class histogram;  // obs/metrics.h

/// What one instrumentation site feeds; a site names only the consumers it
/// has (designated initializers).
struct probe_site {
  /// Span name (static storage) for the rings that are on; nullptr writes
  /// no ring record.
  const char* name = nullptr;
  std::uint64_t arg = 0;  ///< the span's begin argument
  /// Chunk-level site: trace ring only. Thousands fire per second; in the
  /// small flight ring they would evict the pass/partition/I-O context a
  /// post-mortem needs.
  bool hot = false;
  /// Gets the interval's ns added (a profile or stall counter); non-null
  /// always reads the clock.
  std::uint64_t* acc = nullptr;
  /// Records the interval's µs while metrics_on(); the accessor runs only
  /// then, so an unrecorded histogram is never registered.
  histogram& (*hist)() = nullptr;
  /// The sampler's state for this thread inside the interval (io_wait,
  /// lock_wait, or cpu for work done inside a wait); unset leaves it.
  std::optional<sample_state> wait = std::nullopt;
};

// The probe's out-of-line parts. They take scalars only, so a probe's
// address never escapes and the compiler keeps it in registers.
namespace detail {
/// `f()` while metrics_on(), else null.
histogram* hist_if_on(histogram& (*f)());
/// Stamp the clock and write the begin record to `rings`; returns the stamp.
std::uint64_t probe_begin(const char* name, std::uint64_t arg,
                          std::uint32_t rings);
/// Stamp the clock again, write the end record and feed `acc` and `hist`;
/// returns the interval in ns.
std::uint64_t probe_end(const char* name, std::uint32_t rings,
                        std::uint64_t t0, std::uint64_t* acc, histogram* hist);
}  // namespace detail

/// One RAII probe per timed site. It reads the clock at most once on entry
/// and once on exit, only when a consumer is on, and those two stamps feed
/// them all: the rings' begin and end records, `acc` and `hist`; the
/// sampler's wait state covers the same interval. With every consumer off,
/// a hot probe costs one relaxed load and untaken branches — which holds
/// only inline, so the probe forces inlining where GCC's size heuristics
/// would call it out of line (they did in the chunk loop's big functions).
class probe {
 public:
  [[gnu::always_inline]] explicit probe(const probe_site& s)
      : name_(s.name), acc_(s.acc) {
    if (s.name != nullptr)
      rings_ = detail::g_record_mask.load(std::memory_order_relaxed) &
               (s.hot ? detail::kTraceBit : kAllRings);
    if (s.hist != nullptr) hist_ = detail::hist_if_on(s.hist);
    if (rings_ != 0 || acc_ != nullptr || hist_ != nullptr)
      t0_ = detail::probe_begin(name_, s.arg, rings_);
    if (s.wait.has_value() && sampler_on()) {
      auto& c = detail::t_sample_ctx;
      prev_state_ = c.state.load(std::memory_order_relaxed);
      c.state.store(static_cast<std::uint8_t>(*s.wait),
                    std::memory_order_relaxed);
      wait_armed_ = true;
    }
  }
  [[gnu::always_inline]] ~probe() { stop(); }
  probe(const probe&) = delete;
  probe& operator=(const probe&) = delete;

  /// Close the interval now (idempotent; the destructor calls it) and
  /// return its length in ns, 0 when no consumer was on at entry.
  [[gnu::always_inline]] std::uint64_t stop() {
    std::uint64_t ns = 0;
    if (t0_ != 0) {
      ns = detail::probe_end(name_, rings_, t0_, acc_, hist_);
      t0_ = 0;
    }
    if (wait_armed_) {
      detail::t_sample_ctx.state.store(prev_state_, std::memory_order_relaxed);
      wait_armed_ = false;
    }
    return ns;
  }

 private:
  const char* name_;
  std::uint64_t* acc_;
  histogram* hist_ = nullptr;
  std::uint64_t t0_ = 0;  ///< entry stamp; 0 = the clock was not read
  std::uint32_t rings_ = 0;
  std::uint8_t prev_state_ = 0;
  bool wait_armed_ = false;
};

}  // namespace flashr::obs

/// Chunk-granularity instant: full tracer only, skipped by the always-on
/// flight recorder (see probe_site::hot).
#define OBS_INSTANT_HOT(name, arg)                                          \
  do {                                                                      \
    if (::flashr::obs::trace_on())                                          \
      ::flashr::obs::emit(::flashr::obs::event_kind::instant, name,         \
                          static_cast<std::uint64_t>(arg), ::flashr::now_ns(), \
                          ::flashr::obs::detail::kTraceBit);                \
  } while (0)

/// Point event; `name` must be a static string.
#define OBS_INSTANT(name, arg)                                       \
  do {                                                               \
    if (::flashr::obs::record_on())                                  \
      ::flashr::obs::emit(::flashr::obs::event_kind::instant, name,  \
                          static_cast<std::uint64_t>(arg),           \
                          ::flashr::now_ns());                       \
  } while (0)

/// Counter sample; `name` must be a static string. Shows up as a per-thread
/// graph track in Perfetto.
#define OBS_COUNTER(name, value)                                     \
  do {                                                               \
    if (::flashr::obs::record_on())                                  \
      ::flashr::obs::emit(::flashr::obs::event_kind::counter, name,  \
                          static_cast<std::uint64_t>(value),         \
                          ::flashr::now_ns());                       \
  } while (0)
