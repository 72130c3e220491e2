// Profile-history store — see prof_store.h. Storage discipline (atomic
// temp + fsync + rename, lexicographic pruning) mirrors incident.cpp's
// bundle writer so both stores behave identically under crashes and
// retention pressure.
#include "obs/prof_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/thread_safety.h"
#include "obs/sampler.h"

namespace flashr::obs {

namespace {

mutex g_prof_mtx LOCK_RANK(prof_store);
std::string g_dir GUARDED_BY(g_prof_mtx);  // empty = disarmed
int g_keep GUARDED_BY(g_prof_mtx) = 32;

bool has_prefix(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

bool has_suffix(const std::string& s, const char* suf) {
  const std::size_t n = std::strlen(suf);
  return s.size() >= n && s.compare(s.size() - n, n, suf) == 0;
}

std::uint64_t realtime_now_ns() {
  struct timespec ts;
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Delete the oldest prof-*.json beyond `keep` (lexicographic order is
/// chronological: the name embeds a zero-padded realtime timestamp).
void prune_records(const std::string& dir, int keep) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* de = ::readdir(d)) {
    std::string name = de->d_name;
    if (has_prefix(name, "prof-") && has_suffix(name, ".json"))
      names.push_back(std::move(name));
  }
  ::closedir(d);
  if (names.size() <= static_cast<std::size_t>(keep)) return;
  std::sort(names.begin(), names.end());  // oldest first
  const std::size_t excess = names.size() - static_cast<std::size_t>(keep);
  for (std::size_t i = 0; i < excess; ++i)
    ::unlink((dir + "/" + names[i]).c_str());
}

void append_at_exit() {
  if (prof_store_armed()) prof_store_append("exit");
}

}  // namespace

std::string prof_record_json(const char* label) {
  std::uint64_t period_ns = 0;
  const std::vector<node_samples> nodes = sampler_pass_samples(0, &period_ns);
  const std::string folded = folded_stacks();
  const sampler_counters c = sampler_stats();

  std::string out = "{\"schema\":\"flashr-prof-v1\",\"label\":";
  json::quote(out, label != nullptr ? label : "");
  out += ",\"ts_ns\":" + std::to_string(realtime_now_ns());
  out += ",\"sample_hz\":" + std::to_string(c.hz);
  out += ",\"period_ns\":" + std::to_string(period_ns);
  out += ",\"samples\":" + std::to_string(c.samples);
  out += ",\"dropped\":" + std::to_string(c.dropped);
  out += ",\"nodes\":[";
  bool first = true;
  for (const node_samples& n : nodes) {
    if (!first) out += ',';
    first = false;
    out += "{\"pass\":" + std::to_string(n.pass);
    out += ",\"node\":" + std::to_string(n.node);
    out += ",\"cpu\":" + std::to_string(n.cpu);
    out += ",\"io_wait\":" + std::to_string(n.io_wait);
    out += ",\"lock_wait\":" + std::to_string(n.lock_wait);
    out += ",\"idle\":" + std::to_string(n.idle);
    out += '}';
  }
  out += "],\"stacks\":[";
  first = true;
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
  ::mkdir(dir.c_str(), 0755);  // best-effort; the opendir below is the check
  if (DIR* d = ::opendir(dir.c_str())) {
    ::closedir(d);
  } else {
    FLASHR_WARN("prof_store: cannot open %s (errno %d)", dir.c_str(), errno);
    return;
  }
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

  char name[48];
  std::snprintf(name, sizeof(name), "prof-%020llu.json",
                static_cast<unsigned long long>(realtime_now_ns()));
  const std::string tmp = g_dir + "/.prof.tmp";
  const std::string full = g_dir + "/" + name;
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    FLASHR_WARN("prof_store: cannot write %s (errno %d)", tmp.c_str(), errno);
    return "";
  }
  std::size_t off = 0;
  bool ok = true;
  while (off < body.size()) {
    const ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (ok) ::fsync(fd);
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), full.c_str()) != 0) {
    FLASHR_WARN("prof_store: failed to place record %s (errno %d)", name,
                errno);
    ::unlink(tmp.c_str());
    return "";
  }
  prune_records(g_dir, g_keep);
  return name;
}

std::string prof_store_list_json() {
  std::string dir;
  {
    mutex_lock lock(g_prof_mtx);
    dir = g_dir;
  }
  std::string out = "{\"dir\":";
  json::quote(out, dir);
  out += ",\"records\":[";
  if (!dir.empty()) {
    struct entry {
      std::string name;
      std::uint64_t bytes;
    };
    std::vector<entry> entries;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (dirent* de = ::readdir(d)) {
        std::string name = de->d_name;
        if (!has_prefix(name, "prof-") || !has_suffix(name, ".json"))
          continue;
        struct stat st {};
        std::uint64_t bytes = 0;
        if (::stat((dir + "/" + name).c_str(), &st) == 0)
          bytes = static_cast<std::uint64_t>(st.st_size);
        entries.push_back({std::move(name), bytes});
      }
      ::closedir(d);
    }
    std::sort(entries.begin(), entries.end(),
              [](const entry& a, const entry& b) { return a.name < b.name; });
    bool first = true;
    for (const entry& e : entries) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      json::quote(out, e.name);
      out += ",\"bytes\":" + std::to_string(e.bytes);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

bool prof_store_fetch(const std::string& name, std::string* body) {
  // Basenames only: no separators, no parent traversal, and only names the
  // store itself would have written.
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find("..") != std::string::npos || !has_prefix(name, "prof-") ||
      !has_suffix(name, ".json"))
    return false;
  std::string dir;
  {
    mutex_lock lock(g_prof_mtx);
    dir = g_dir;
  }
  if (dir.empty()) return false;
  std::FILE* f = std::fopen((dir + "/" + name).c_str(), "r");
  if (f == nullptr) return false;
  body->clear();
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body->append(buf, n);
  std::fclose(f);
  return true;
}

}  // namespace flashr::obs
