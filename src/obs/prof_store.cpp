// Profile-history store — see prof_store.h. Files are written and pruned
// through obs/artifact_dir.h, the same writer incident bundles use.
#include "obs/prof_store.h"

#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/thread_safety.h"
#include "obs/artifact_dir.h"
#include "obs/sampler.h"

namespace flashr::obs {

namespace {

mutex g_prof_mtx LOCK_RANK(prof_store);
std::string g_dir GUARDED_BY(g_prof_mtx);  // empty = disarmed
int g_keep GUARDED_BY(g_prof_mtx) = 32;

void append_at_exit() {
  if (prof_store_armed()) prof_store_append("exit");
}

}  // namespace

std::string prof_record_json(const char* label) {
  const std::string folded = folded_stacks();
  const sampler_counters c = sampler_stats();

  std::string out = "{\"schema\":\"flashr-prof-v1\",\"label\":";
  json::quote(out, label != nullptr ? label : "");
  out += ",\"ts_ns\":" + std::to_string(realtime_ns());
  out += ",\"sample_hz\":" + std::to_string(c.hz);
  out += ",\"period_ns\":" + std::to_string(c.period_ns);
  out += ",\"samples\":" + std::to_string(c.samples);
  out += ",\"dropped\":" + std::to_string(c.dropped);
  out += ",\"stacks\":[";
  bool first = true;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    std::size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) eol = folded.size();
    const std::string line = folded.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"stack\":";
    json::quote(out, line.substr(0, sp));
    out += ",\"count\":" + line.substr(sp + 1);
    out += '}';
  }
  out += "]}";
  return out;
}

void prof_store_arm(const std::string& dir, int keep) {
  if (!artifact_dir_open(dir)) return;
  {
    mutex_lock lock(g_prof_mtx);
    g_dir = dir;
    g_keep = keep >= 1 ? keep : 1;
  }
  static const bool registered = [] {
    std::atexit(append_at_exit);
    return true;
  }();
  (void)registered;
}

void prof_store_disarm() {
  mutex_lock lock(g_prof_mtx);
  g_dir.clear();
}

bool prof_store_armed() {
  mutex_lock lock(g_prof_mtx);
  return !g_dir.empty();
}

std::string prof_store_append(const char* label) {
  mutex_lock lock(g_prof_mtx);  // rank 760 < sampler 770: composition may drain
  if (g_dir.empty()) return "";
  const std::string body = prof_record_json(label) + "\n";
  // Composing drained the sampler's rings. A record without samples
  // attributes nothing (bench_compare.py --attribute rejects it) and would
  // push a useful one out of retention.
  const sampler_counters c = sampler_stats();
  if (c.period_ns == 0 || c.samples == 0) return "";

  char name[48];
  std::snprintf(name, sizeof(name), "prof-%020llu.json",
                static_cast<unsigned long long>(realtime_ns()));
  if (!artifact_write(g_dir, name, body)) return "";
  artifact_prune(g_dir, "prof-", ".json", static_cast<std::size_t>(g_keep));
  return name;
}

}  // namespace flashr::obs
