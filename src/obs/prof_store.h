// Append-only profile-history store (flashr-prof-v1 records).
//
// One record = the sampling profiler's folded stacks at a moment in time,
// each split by wait state (cpu / io_wait / lock_wait / idle), plus enough
// metadata (rate, period, drop count) to scale counts into seconds.
// Records land in obs_prof_dir as prof-<zero-padded realtime ns>.json —
// lexicographic order is chronological order across runs — written and
// retention-bounded to obs_prof_keep by obs/artifact_dir.h, like incident
// bundles. Processes may share one directory: each record goes through its
// own temp file.
//
// The point is regression *attribution*: tools/bench_compare.py
// --attribute diffs two records and names which stack regressed, not just
// which benchmark. A DAG node's time is the pass profile's measured
// kernel_ns (obs/profile.h), not a sample count. When armed (obs_prof_dir /
// FLASHR_PROF_DIR), one record is appended automatically at process exit
// if the sampler folded samples; the records are plain files, read from the
// directory.
#pragma once

#include <string>

namespace flashr::obs {

/// Arm the store: records append into `dir` (created if missing), keeping
/// the newest `keep`. Registers the at-exit append once. Re-arming
/// switches directories.
void prof_store_arm(const std::string& dir, int keep);

/// Disarm: no further automatic appends (explicit prof_store_append with
/// an armed dir already gone is a no-op returning "").
void prof_store_disarm();

bool prof_store_armed();

/// Compose one flashr-prof-v1 record from the sampler's current
/// aggregates. `label` tags the record ("exit", "bench_fig7", ...).
std::string prof_record_json(const char* label);

/// Compose and write one record into the armed directory. Returns the
/// record filename, or "" (writing nothing) when disarmed, when the
/// sampler has folded no samples, or on write failure.
std::string prof_store_append(const char* label);

}  // namespace flashr::obs
