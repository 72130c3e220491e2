// Per-thread lock-free trace rings (the tracing third of src/obs/).
//
// Every thread that emits an event owns a fixed-capacity ring of 32-byte
// records (steady-clock ns timestamp, interned name pointer, event kind,
// one integer argument). Emission is wait-free for the owning thread: four
// relaxed atomic word stores plus one release store of the ring head. When
// the ring is full the writer simply keeps going — the oldest records are
// overwritten and counted as dropped, so tracing can stay on for a whole
// run without unbounded memory.
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
#include <string>
#include <vector>

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

/// Whether any recorder wants events; the macros/span test this.
inline bool record_on() {
  return detail::g_record_mask.load(std::memory_order_relaxed) != 0;
}

void set_trace_enabled(bool on);
void set_flight_enabled(bool on);

enum class event_kind : std::uint64_t {
  begin = 0,    ///< span open  (Chrome "ph":"B")
  end = 1,      ///< span close (Chrome "ph":"E")
  instant = 2,  ///< point event (Chrome "ph":"i")
  counter = 3,  ///< sampled value (Chrome "ph":"C") — renders as a graph
                ///< track (prefetch window occupancy, queue depths, ...)
};

/// Append one record to the calling thread's ring(s) — the trace ring, the
/// flight-recorder ring, or both, per the record mask. `name` must have
/// static storage duration. Call only when record_on() (the macros below
/// do).
void emit(event_kind kind, const char* name, std::uint64_t arg);

/// Like emit(), but records to the full trace ring ONLY — the flight
/// recorder skips it. For chunk-granularity hot-path events (the per-chunk
/// span, per-buffer pool instants): thousands fire per second, so they
/// would wrap the small flight ring in milliseconds and evict the
/// pass/partition/I-O context a post-mortem actually needs, while taxing
/// the engine's hottest loops when tracing is off. Call only when
/// trace_on() (the _HOT macros below do).
void emit_trace_only(event_kind kind, const char* name, std::uint64_t arg);

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
/// current conf().obs_ring_events capacity) and reset drop counters.
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
/// consumer's job (obs/incident.cpp re-pairs exactly like trace_json).
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

/// Crash-path dump of every flight ring as FRNG sections plus one STRT
/// string table (interned name bytes, keyed by pointer), in the crash-dump
/// binary format (obs/crash_handler.h). Async-signal-safe: relaxed atomic
/// reads into static snapshot buffers, no locks, no allocation.
void flight_dump_raw(raw_sink& sink) noexcept;

/// RAII span: records begin on construction and end on destruction when
/// any recorder is enabled; otherwise a single relaxed-load branch.
class span {
 public:
  explicit span(const char* name, std::uint64_t arg = 0) {
    if (record_on()) {
      name_ = name;
      emit(event_kind::begin, name, arg);
    }
  }
  ~span() {
    if (name_ != nullptr) emit(event_kind::end, name_, 0);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  const char* name_ = nullptr;
};

/// RAII span for chunk-granularity hot paths: recorded by the full tracer
/// only, never the flight recorder (see emit_trace_only).
class span_hot {
 public:
  explicit span_hot(const char* name, std::uint64_t arg = 0) {
    if (trace_on()) {
      name_ = name;
      emit_trace_only(event_kind::begin, name, arg);
    }
  }
  ~span_hot() {
    if (name_ != nullptr) emit_trace_only(event_kind::end, name_, 0);
  }
  span_hot(const span_hot&) = delete;
  span_hot& operator=(const span_hot&) = delete;

 private:
  const char* name_ = nullptr;
};

}  // namespace flashr::obs

#define FLASHR_OBS_CONCAT2(a, b) a##b
#define FLASHR_OBS_CONCAT(a, b) FLASHR_OBS_CONCAT2(a, b)

/// Scoped trace span; `name` must be a static string.
#define OBS_SPAN(name) \
  ::flashr::obs::span FLASHR_OBS_CONCAT(obs_span_, __LINE__)(name)
#define OBS_SPAN_ARG(name, arg) \
  ::flashr::obs::span FLASHR_OBS_CONCAT(obs_span_, __LINE__)(name, (arg))

/// Chunk-granularity span/instant: full tracer only, skipped by the
/// always-on flight recorder (see emit_trace_only).
#define OBS_SPAN_HOT(name, arg) \
  ::flashr::obs::span_hot FLASHR_OBS_CONCAT(obs_span_, __LINE__)(name, (arg))
#define OBS_INSTANT_HOT(name, arg)                                       \
  do {                                                                   \
    if (::flashr::obs::trace_on())                                       \
      ::flashr::obs::emit_trace_only(::flashr::obs::event_kind::instant, \
                                     name, static_cast<std::uint64_t>(arg)); \
  } while (0)

/// Point event; `name` must be a static string.
#define OBS_INSTANT(name, arg)                                       \
  do {                                                               \
    if (::flashr::obs::record_on())                                  \
      ::flashr::obs::emit(::flashr::obs::event_kind::instant, name,  \
                          static_cast<std::uint64_t>(arg));          \
  } while (0)

/// Counter sample; `name` must be a static string. Shows up as a per-thread
/// graph track in Perfetto.
#define OBS_COUNTER(name, value)                                     \
  do {                                                               \
    if (::flashr::obs::record_on())                                  \
      ::flashr::obs::emit(::flashr::obs::event_kind::counter, name,  \
                          static_cast<std::uint64_t>(value));        \
  } while (0)
