// Async-signal-safe crash capture (see crash_handler.h for the dump
// format). The split here is the whole design: everything that can
// allocate, lock or format runs EARLY (crash_arm, the incident monitor's
// crash_refresh_static/crash_stage_metrics) into fixed static buffers and
// pre-opened fds; the crash path itself (crash_dump_now and the dumpers it
// composes) is straight-line code over atomics, memcpy and ::write. The
// analyzer's FLASHR_SIGNAL_SAFE family proves the latter half stays that
// way.

#include "obs/crash_handler.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/raw_sink.h"
#include "obs/trace.h"

namespace flashr::obs {

namespace {

constexpr char kMagic[9] = "FLRCRSH1";  // 8 bytes on the wire
constexpr std::uint32_t kVersion = 1;
constexpr char kTmpName[] = ".crash.tmp";

std::atomic<int> g_dir_fd{-1};
std::atomic<int> g_dump_fd{-1};
std::atomic<bool> g_handlers_installed{false};
std::atomic<int> g_dumped{0};

// STAT section, double-buffered: the monitor writes the idle buffer and
// flips the index, so the crash path always reads a complete serialization.
constexpr std::size_t kStaticMax = 16384;
char g_static[2][kStaticMax];
std::atomic<std::uint32_t> g_static_len[2] = {};
std::atomic<int> g_static_idx{0};

// METR ring: the monitor stages periodic metrics snapshots; the crash path
// dumps whatever is valid. A snapshot being rewritten at crash instant can
// come out torn, which is why the reassembled JSON carries each snapshot as
// an escaped string, not a spliced object.
constexpr int kMetrSlots = 4;
constexpr std::size_t kMetrMax = 16384;
char g_metr[kMetrSlots][kMetrMax];
std::atomic<std::uint32_t> g_metr_len[kMetrSlots] = {};
std::atomic<std::uint64_t> g_metr_ts[kMetrSlots] = {};
std::atomic<std::uint32_t> g_metr_next{0};

std::uint64_t clock_ns(clockid_t id) noexcept FLASHR_SIGNAL_SAFE;
std::uint64_t clock_ns(clockid_t id) noexcept {
  struct timespec ts;
  if (::clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Hand-rolled decimal formatting — snprintf is not async-signal-safe
/// (locale locks). Returns the number of characters written.
std::size_t u64_dec(char* out, std::uint64_t v) noexcept FLASHR_SIGNAL_SAFE;
std::size_t u64_dec(char* out, std::uint64_t v) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

void on_crash_signal(int sig) FLASHR_SIGNAL_SAFE;
void on_crash_signal(int sig) {
  crash_dump_now(sig, "fatal signal");
  // Restore the default action and re-deliver so the exit status (and core
  // dump, if enabled) are exactly what they would have been without us.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void crash_arm(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_DIRECTORY | O_RDONLY | O_CLOEXEC);
  if (dirfd < 0) {
    FLASHR_WARN("incident: cannot open incident dir %s (errno %d)",
                dir.c_str(), errno);
    return;
  }
  const int fd =
      ::openat(dirfd, kTmpName, O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    FLASHR_WARN("incident: cannot pre-open crash file in %s (errno %d)",
                dir.c_str(), errno);
    ::close(dirfd);
    return;
  }
  const int old_fd = g_dump_fd.exchange(fd, std::memory_order_acq_rel);
  if (old_fd >= 0) ::close(old_fd);
  const int old_dir = g_dir_fd.exchange(dirfd, std::memory_order_acq_rel);
  if (old_dir >= 0) ::close(old_dir);
  g_dumped.store(0, std::memory_order_release);
  if (!g_handlers_installed.exchange(true)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_crash_signal;
    sigemptyset(&sa.sa_mask);
    const int sigs[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE};
    for (const int s : sigs) ::sigaction(s, &sa, nullptr);
  }
}

void crash_disarm() {
  const int fd = g_dump_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
  const int dirfd = g_dir_fd.exchange(-1, std::memory_order_acq_rel);
  if (dirfd >= 0) ::close(dirfd);
}

bool crash_armed() {
  return g_dump_fd.load(std::memory_order_acquire) >= 0;
}

void crash_refresh_static(const std::string& static_json) {
  if (static_json.size() > kStaticMax) {
    FLASHR_WARN("incident: static section too large (%zu bytes), keeping old",
                static_json.size());
    return;
  }
  const int idle = 1 - (g_static_idx.load(std::memory_order_relaxed) & 1);
  std::memcpy(g_static[idle], static_json.data(), static_json.size());
  g_static_len[idle].store(static_cast<std::uint32_t>(static_json.size()),
                           std::memory_order_release);
  g_static_idx.store(idle, std::memory_order_release);
}

void crash_stage_metrics(const std::string& metrics_json) {
  if (metrics_json.size() > kMetrMax) return;  // keep older, smaller ones
  const std::uint32_t i =
      g_metr_next.fetch_add(1, std::memory_order_relaxed) % kMetrSlots;
  g_metr_len[i].store(0, std::memory_order_release);  // invalidate first
  std::memcpy(g_metr[i], metrics_json.data(), metrics_json.size());
  g_metr_ts[i].store(clock_ns(CLOCK_MONOTONIC), std::memory_order_relaxed);
  g_metr_len[i].store(static_cast<std::uint32_t>(metrics_json.size()),
                      std::memory_order_release);
}

bool crash_dump_now(int sig, const char* reason) noexcept {
  if (g_dumped.exchange(1, std::memory_order_acq_rel) != 0) return false;
  const int fd = g_dump_fd.load(std::memory_order_acquire);
  if (fd < 0) return false;

  // Static sink: the crash path must not grow the stack (the fault may BE a
  // stack overflow), and the dump-once guard above means a single writer.
  static raw_sink sink;
  sink.fd = fd;
  sink.n = 0;

  sink_put(sink, kMagic, 8);

  const std::uint64_t reason_len =
      reason == nullptr ? 0 : std::strlen(reason);
  sink_tag(sink, "HDR1", 16 + 16 + reason_len);
  sink_u32(sink, kVersion);
  sink_u32(sink, static_cast<std::uint32_t>(sig));
  sink_u32(sink, static_cast<std::uint32_t>(::getpid()));
  sink_u32(sink, static_cast<std::uint32_t>(reason_len));
  sink_u64(sink, clock_ns(CLOCK_MONOTONIC));
  sink_u64(sink, clock_ns(CLOCK_REALTIME));
  if (reason_len > 0) sink_put(sink, reason, reason_len);

  const int idx = g_static_idx.load(std::memory_order_acquire) & 1;
  std::uint32_t slen = g_static_len[idx].load(std::memory_order_acquire);
  if (slen > kStaticMax) slen = kStaticMax;
  sink_tag(sink, "STAT", slen);
  sink_put(sink, g_static[idx], slen);

  log_dump_raw(sink);
  flashr::detail::rank_dump_raw(sink);
  flight_dump_raw(sink);

  std::uint32_t lens[kMetrSlots];
  std::uint32_t mcount = 0;
  std::uint64_t mlen = 4;
  for (int i = 0; i < kMetrSlots; ++i) {
    std::uint32_t len = g_metr_len[i].load(std::memory_order_acquire);
    if (len > kMetrMax) len = 0;
    lens[i] = len;
    if (len > 0) {
      ++mcount;
      mlen += 12 + len;
    }
  }
  sink_tag(sink, "METR", mlen);
  sink_u32(sink, mcount);
  for (int i = 0; i < kMetrSlots; ++i) {
    if (lens[i] == 0) continue;
    sink_u64(sink, g_metr_ts[i].load(std::memory_order_relaxed));
    sink_u32(sink, lens[i]);
    sink_put(sink, g_metr[i], lens[i]);
  }

  sink_tag(sink, "END0", 0);
  sink_flush(sink);
  ::fsync(fd);

  const int dirfd = g_dir_fd.load(std::memory_order_acquire);
  if (dirfd >= 0) {
    static char name[64];
    std::size_t n = 0;
    std::memcpy(name + n, "crash-", 6);
    n += 6;
    n += u64_dec(name + n, static_cast<std::uint64_t>(::getpid()));
    std::memcpy(name + n, "-sig", 4);
    n += 4;
    n += u64_dec(name + n, static_cast<std::uint64_t>(sig));
    std::memcpy(name + n, ".bin", 4);
    n += 4;
    name[n] = '\0';
    ::renameat(dirfd, kTmpName, dirfd, name);
    ::fsync(dirfd);
  }
  return true;
}

// ---- offline reassembly (ordinary code; runs in tests and debuggers) ------

namespace {

struct dump_reader {
  const unsigned char* p;
  std::size_t size;

  bool ok(std::size_t off, std::size_t need) const {
    return off + need <= size && off + need >= off;
  }
  std::uint32_t u32(std::size_t off) const {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[off + i]) << (8 * i);
    return v;
  }
  std::uint64_t u64(std::size_t off) const {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[off + i]) << (8 * i);
    return v;
  }
};

struct dump_section {
  char tag[5];
  std::size_t off;  ///< payload offset
  std::size_t len;
};

void append_escaped_bytes(std::string& out, const unsigned char* s,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = s[i];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

/// A raw record's phase letter; "?" for a kind no emitter writes.
const char* kind_ph(std::uint64_t kind) {
  return kind <= static_cast<std::uint64_t>(event_kind::counter)
             ? event_ph(static_cast<event_kind>(kind))
             : "?";
}

}  // namespace

std::string reassemble_crash_dump(const std::string& path) {
  std::vector<unsigned char> data;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
      throw io_error("cannot open crash dump", path, 0, 0, errno);
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
      data.insert(data.end(), buf, buf + n);
    std::fclose(f);
  }

  const dump_reader rd{data.data(), data.size()};
  std::string out = "{\"schema\":\"flashr-crash-v1\"";
  bool complete = false;
  std::vector<dump_section> sections;
  std::size_t off = 8;
  if (data.size() < 8 || std::memcmp(data.data(), kMagic, 8) != 0) {
    out += ",\"complete\":false,\"error\":\"bad magic\"}";
    return out;
  }
  while (rd.ok(off, 12)) {
    dump_section s;
    std::memcpy(s.tag, data.data() + off, 4);
    s.tag[4] = '\0';
    const std::uint64_t len = rd.u64(off + 4);
    s.off = off + 12;
    if (!rd.ok(s.off, static_cast<std::size_t>(len))) break;  // truncated
    s.len = static_cast<std::size_t>(len);
    sections.push_back(s);
    if (std::memcmp(s.tag, "END0", 4) == 0) complete = true;
    off = s.off + s.len;
  }

  // STRT first: the FRNG decode needs the pointer -> name map.
  std::vector<std::pair<std::uint64_t, std::string>> names;
  for (const auto& s : sections) {
    if (std::memcmp(s.tag, "STRT", 4) != 0 || s.len < 4) continue;
    const std::uint32_t n = rd.u32(s.off);
    std::size_t p = s.off + 4;
    for (std::uint32_t i = 0; i < n && rd.ok(p, 12); ++i) {
      const std::uint64_t ptr = rd.u64(p);
      const std::uint32_t len = rd.u32(p + 8);
      if (!rd.ok(p + 12, len)) break;
      names.emplace_back(
          ptr, std::string(reinterpret_cast<const char*>(data.data() + p + 12),
                           len));
      p += 12 + len;
    }
  }
  auto name_of = [&](std::uint64_t ptr) -> std::string {
    for (const auto& kv : names)
      if (kv.first == ptr) return kv.second;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(ptr));
    return buf;
  };

  char buf[128];
  bool first_ring = true;
  std::string flight_json, log_json, rank_json, metr_json, stat_json;
  for (const auto& s : sections) {
    if (std::memcmp(s.tag, "HDR1", 4) == 0 && s.len >= 32) {
      const std::uint32_t reason_len = rd.u32(s.off + 12);
      std::snprintf(buf, sizeof(buf),
                    ",\"version\":%u,\"signal\":%u,\"pid\":%u,\"mono_ns\":%llu,"
                    "\"real_ns\":%llu",
                    rd.u32(s.off), rd.u32(s.off + 4), rd.u32(s.off + 8),
                    static_cast<unsigned long long>(rd.u64(s.off + 16)),
                    static_cast<unsigned long long>(rd.u64(s.off + 24)));
      out += buf;
      out += ",\"reason\":\"";
      if (rd.ok(s.off + 32, reason_len))
        append_escaped_bytes(out, data.data() + s.off + 32, reason_len);
      out += "\"";
    } else if (std::memcmp(s.tag, "STAT", 4) == 0) {
      stat_json.assign(reinterpret_cast<const char*>(data.data() + s.off),
                       s.len);
    } else if (std::memcmp(s.tag, "LOGR", 4) == 0 && s.len >= 12) {
      log_json = "[";
      const std::uint32_t n = rd.u32(s.off + 8);
      std::size_t p = s.off + 12;
      for (std::uint32_t i = 0; i < n && rd.ok(p, 8); ++i) {
        const std::uint32_t lvl = rd.u32(p);
        const std::uint32_t len = rd.u32(p + 4);
        if (!rd.ok(p + 8, len)) break;
        if (i > 0) log_json += ",";
        std::snprintf(buf, sizeof(buf), "{\"level\":%u,\"msg\":\"", lvl);
        log_json += buf;
        append_escaped_bytes(log_json, data.data() + p + 8, len);
        log_json += "\"}";
        p += 8 + len;
      }
      log_json += "]";
    } else if (std::memcmp(s.tag, "RANK", 4) == 0 && s.len >= 4) {
      rank_json = "[";
      const std::uint32_t n = rd.u32(s.off);
      std::size_t p = s.off + 4;
      for (std::uint32_t i = 0; i < n && rd.ok(p, 8); ++i) {
        const std::uint32_t tid = rd.u32(p);
        const std::uint32_t depth = rd.u32(p + 4);
        if (!rd.ok(p + 8, 4u * depth)) break;
        if (i > 0) rank_json += ",";
        std::snprintf(buf, sizeof(buf), "{\"tid\":%u,\"ranks\":[", tid);
        rank_json += buf;
        for (std::uint32_t j = 0; j < depth; ++j) {
          if (j > 0) rank_json += ",";
          std::snprintf(buf, sizeof(buf), "%u", rd.u32(p + 8 + 4 * j));
          rank_json += buf;
        }
        rank_json += "]}";
        p += 8 + 4u * depth;
      }
      rank_json += "]";
    } else if (std::memcmp(s.tag, "FRNG", 4) == 0 && s.len >= 64) {
      if (!first_ring) flight_json += ",";
      first_ring = false;
      const std::uint32_t tid = rd.u32(s.off);
      char name[33];
      std::memcpy(name, data.data() + s.off + 8, 32);
      name[32] = '\0';
      const std::uint64_t cap = rd.u64(s.off + 40);
      const std::uint64_t head = rd.u64(s.off + 48);
      const std::uint64_t count = rd.u64(s.off + 56);
      std::snprintf(buf, sizeof(buf), "{\"tid\":%u,\"name\":\"", tid);
      flight_json += buf;
      append_escaped_bytes(flight_json,
                           reinterpret_cast<const unsigned char*>(name),
                           std::strlen(name));
      std::snprintf(buf, sizeof(buf),
                    "\",\"cap\":%llu,\"head\":%llu,\"dropped\":%llu,"
                    "\"events\":[",
                    static_cast<unsigned long long>(cap),
                    static_cast<unsigned long long>(head),
                    static_cast<unsigned long long>(head > cap ? head - cap
                                                               : 0));
      flight_json += buf;
      std::size_t p = s.off + 64;
      for (std::uint64_t i = 0; i < count && rd.ok(p, 32); ++i) {
        if (i > 0) flight_json += ",";
        std::snprintf(buf, sizeof(buf), "{\"ts_ns\":%llu,\"name\":\"",
                      static_cast<unsigned long long>(rd.u64(p)));
        flight_json += buf;
        const std::string nm = name_of(rd.u64(p + 8));
        append_escaped_bytes(flight_json,
                             reinterpret_cast<const unsigned char*>(nm.data()),
                             nm.size());
        std::snprintf(buf, sizeof(buf), "\",\"ph\":\"%s\",\"arg\":%llu}",
                      kind_ph(rd.u64(p + 16)),
                      static_cast<unsigned long long>(rd.u64(p + 24)));
        flight_json += buf;
        p += 32;
      }
      flight_json += "]}";
    } else if (std::memcmp(s.tag, "METR", 4) == 0 && s.len >= 4) {
      metr_json = "[";
      const std::uint32_t n = rd.u32(s.off);
      std::size_t p = s.off + 4;
      for (std::uint32_t i = 0; i < n && rd.ok(p, 12); ++i) {
        const std::uint64_t ts = rd.u64(p);
        const std::uint32_t len = rd.u32(p + 8);
        if (!rd.ok(p + 12, len)) break;
        if (i > 0) metr_json += ",";
        std::snprintf(buf, sizeof(buf), "{\"ts_ns\":%llu,\"json\":\"",
                      static_cast<unsigned long long>(ts));
        metr_json += buf;
        append_escaped_bytes(metr_json, data.data() + p + 12, len);
        metr_json += "\"}";
        p += 12 + len;
      }
      metr_json += "]";
    }
  }

  out += ",\"complete\":";
  out += complete ? "true" : "false";
  out += ",\"static\":";
  out += stat_json.empty() ? "null" : stat_json;
  out += ",\"log\":";
  out += log_json.empty() ? "[]" : log_json;
  out += ",\"held_ranks\":";
  out += rank_json.empty() ? "[]" : rank_json;
  out += ",\"flight\":{\"threads\":[";
  out += flight_json;
  out += "]},\"metrics_snapshots\":";
  out += metr_json.empty() ? "[]" : metr_json;
  out += "}";
  return out;
}

}  // namespace flashr::obs
