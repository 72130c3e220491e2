// Incident diagnostics: the black-box bundle writer over the always-on
// flight recorder (obs/trace.h) and the crash handler (obs/crash_handler.h).
//
// Anything that indicates the engine is in trouble — a watchdog trip, a
// governor overload, an invariant or lock-rank abort, an
// I/O retry budget exhausted, a checksum mismatch, or an operator sending
// SIGUSR2 — files a *trigger*. Triggers are consumed by a monitor thread
// that composes one self-contained JSON bundle (schema
// "flashr-incident-v1") with everything a post-mortem needs: the trigger,
// the flight-recorder tail, per-thread held lock ranks, the active-pass
// table with degrade paths, governor health, I/O service introspection, a
// metrics snapshot, config knobs, the log tail and build info. Bundles land
// in the armed directory (FLASHR_INCIDENT_DIR / incident_dir) through
// obs/artifact_dir.h (unique temp file + atomic rename), pruned to
// incident_max_bundles. Post-mortem readers list and read that directory.
//
// incident_request() is LOCK-FREE AND ASYNC-SIGNAL-SAFE by construction
// (fixed trigger slots claimed by CAS + a self-pipe wakeup): the interesting
// triggers fire from under the watchdog lock, from nonblocking
// I/O completion contexts, and from the SIGUSR2 handler, none of which may
// block. When every slot is busy the trigger is dropped and counted
// (flashr_incident_dropped) — under a trigger storm the first bundles
// already tell the story.
//
// Process aborts (invariant/lock-rank failures, crash signals) cannot wait
// for the monitor: error.cpp::assert_fail and the crash signal handlers call
// obs::crash_dump_now() directly, which writes the raw binary dump
// (crash_handler.h); tools/check_incident.py and reassemble_crash_dump()
// turn that into the same JSON shape offline.
#pragma once

#include <cstdint>
#include <string>

#include "common/thread_safety.h"

namespace flashr::obs {

/// What filed the incident; names (incident_kind_name) appear in bundle
/// filenames and in the bundle's "trigger" section.
enum class incident_kind : int {
  manual = 0,       ///< SIGUSR2 or incident_write_bundle()
  watchdog_trip,    ///< pass_watchdog deadline/stall trip (core/governor.cpp)
  governor_overload,///< overload_error thrown at admission
  invariant_abort,  ///< FLASHR_ASSERT / invariant validator failure
  lock_rank_abort,  ///< runtime lock-rank inversion (common/lock_rank.cpp)
  io_exhausted,     ///< io_error past the syscall retry budget
  checksum,         ///< stored-chunk checksum mismatch (io/em_store.cpp)
};

const char* incident_kind_name(incident_kind k) noexcept;

/// File a trigger. Lock-free and async-signal-safe: claims one of a fixed
/// set of slots by CAS and pokes the monitor's self-pipe; never allocates,
/// locks or blocks (safe under the watchdog lock and inside
/// signal handlers). `detail` is copied (truncated to ~240 bytes) and may
/// be null. No-op (counted as dropped) when the monitor is not armed or
/// every slot is busy.
void incident_request(incident_kind kind, const char* detail) noexcept
    FLASHR_SIGNAL_SAFE;

/// Start the incident subsystem: create `dir` if missing, start the monitor
/// thread, arm the crash handler (crash_arm) and install the SIGUSR2
/// trigger handler. Re-arming with a new directory restarts the monitor.
/// Returns false (warning logged) when the directory cannot be created or
/// opened. Called by config init when incident_dir / FLASHR_INCIDENT_DIR is
/// set; safe to call directly in tests.
bool incident_arm(const std::string& dir);

/// Stop the monitor thread and disarm the crash handler. Pending triggers
/// are drained into bundles before the monitor exits.
void incident_disarm();

/// Register the flashr_incident_* counters (requests/bundles/dropped) with
/// the metrics registry; idempotent. config init() calls this
/// unconditionally so to_prometheus() exports them even while disarmed.
void incident_register_metrics();

/// Compose one incident bundle JSON right now, on the calling thread (the
/// monitor calls this; incident_write_bundle() and tests use it directly).
std::string incident_bundle_json(incident_kind kind, const char* detail,
                                 std::uint64_t trigger_ns);

/// Write a bundle for `kind` to the armed directory (unique temp file +
/// atomic rename, prune to incident_max_bundles). Returns the bundle
/// filename, or "" when disarmed or the write failed. Ordinary blocking
/// code — not for use on trigger paths; file a trigger with
/// incident_request() instead.
std::string incident_write_bundle(incident_kind kind, const char* detail);

// ---- sections a bundle embeds, also callable on their own -----------------

/// Flight-recorder tail as JSON: {"window_ns":..,"threads":[{tid,name,
/// dropped,events:[{ts_ns,name,ph,arg}]}]}. Spans are re-paired the same way
/// trace_json() balances them: an end whose begin fell off the ring is
/// dropped, a span still open at snapshot gets a synthetic end.
std::string flight_json(std::uint64_t since_ns);

/// Per-thread held lock ranks plus each thread's innermost open flight span:
/// {"threads":[{tid,name,ranks:[{value,name}],span:...}]}.
std::string stacks_json();

}  // namespace flashr::obs
