// The one writer behind the obs layer's two on-disk stores: incident
// bundles (obs/incident.h) and profile-history records (obs/prof_store.h).
//
// A store names its own files, with a zero-padded timestamp after a fixed
// prefix so that lexicographic order is chronological order, and keeps its
// own retention rule. This helper does the file-system half: open the
// directory, place one file atomically, prune one family of names.
//
// Every write goes through its own temp file (mkostemp in the target
// directory), so concurrent writers, whether threads of one process or
// processes sharing a directory, never rename or truncate each other's
// half-written data. A reader sees either no file or a complete one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace flashr::obs {

/// Create `dir` if it is missing (one level, mode 0755) and check that it
/// opens. Returns false, with a warning logged, when it does not.
bool artifact_dir_open(const std::string& dir);

/// Write `body` to `dir`/`name` atomically: a unique temp file in `dir`,
/// mode 0644, written in full, fsync'd, then renamed onto `name`. Returns
/// false, with a warning logged and the temp file removed, on any failure.
bool artifact_write(const std::string& dir, const std::string& name,
                    std::string_view body);

/// Delete the oldest `prefix`*`suffix` files in `dir` beyond the newest
/// `keep`, ordered by name. Files outside the family are never touched.
void artifact_prune(const std::string& dir, std::string_view prefix,
                    std::string_view suffix, std::size_t keep);

/// CLOCK_REALTIME in nanoseconds: comparable across processes and runs,
/// unlike flashr::now_ns().
std::uint64_t realtime_ns();

}  // namespace flashr::obs
