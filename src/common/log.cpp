#include "common/log.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/raw_sink.h"
#include "common/timer.h"

namespace flashr {

namespace {
std::atomic<int> g_level{static_cast<int>(log_level::warn)};
std::atomic<int> g_format{static_cast<int>(log_format::text)};
std::mutex g_mutex;
log_sink g_sink;  // guarded by g_mutex; empty = default stderr sink

// Bounded ring of the last emitted records, for incident bundles and crash
// dumps. Written under g_mutex (so record order matches sink order); fields
// are atomics only so the crash path can read them lock-free.
constexpr std::uint32_t kLogSlots = 128;
constexpr std::uint32_t kLogText = 252;

struct log_slot {
  std::atomic<std::uint32_t> lvl{0};
  std::atomic<std::uint32_t> len{0};
  char text[kLogText];
};

log_slot g_log_ring[kLogSlots];
std::atomic<std::uint64_t> g_log_head{0};  // total records ever emitted

void ring_record(log_level lvl, const char* msg) {
  const std::uint64_t head = g_log_head.load(std::memory_order_relaxed);
  log_slot& slot = g_log_ring[head % kLogSlots];
  std::size_t len = std::strlen(msg);
  if (len > kLogText) len = kLogText;
  slot.len.store(0, std::memory_order_relaxed);  // invalidate while copying
  std::memcpy(slot.text, msg, len);
  slot.lvl.store(static_cast<std::uint32_t>(lvl), std::memory_order_relaxed);
  slot.len.store(static_cast<std::uint32_t>(len), std::memory_order_release);
  g_log_head.store(head + 1, std::memory_order_release);
}

void default_sink(log_level lvl, const char* msg) {
  if (static_cast<log_format>(g_format.load(std::memory_order_relaxed)) ==
      log_format::json) {
    std::string line = "{\"ts_ns\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, now_ns());
    line += buf;
    line += ",\"level\":\"";
    line += log_level_name(lvl);
    line += "\",\"msg\":";
    json::quote(line, msg);
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
  } else {
    const char* tag = lvl == log_level::warn   ? "W"
                      : lvl == log_level::info ? "I"
                                               : "D";
    std::fprintf(stderr, "[flashr %s] %s\n", tag, msg);
  }
}

}  // namespace

void set_log_level(log_level lvl) { g_level.store(static_cast<int>(lvl)); }

log_level get_log_level() { return static_cast<log_level>(g_level.load()); }

const char* log_level_name(log_level lvl) {
  switch (lvl) {
    case log_level::none: return "none";
    case log_level::warn: return "warn";
    case log_level::info: return "info";
    case log_level::debug: return "debug";
  }
  return "?";
}

bool log_level_from_name(const char* name, log_level* out) {
  if (name == nullptr || out == nullptr) return false;
  const std::string_view s(name);
  for (int i = static_cast<int>(log_level::none);
       i <= static_cast<int>(log_level::debug); ++i) {
    const auto lvl = static_cast<log_level>(i);
    if (s == log_level_name(lvl)) {
      *out = lvl;
      return true;
    }
  }
  if (s.size() == 1 && s[0] >= '0' && s[0] <= '3') {
    *out = static_cast<log_level>(s[0] - '0');
    return true;
  }
  return false;
}

void set_log_format(log_format f) { g_format.store(static_cast<int>(f)); }

log_format get_log_format() {
  return static_cast<log_format>(g_format.load());
}

void set_log_sink(log_sink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

void log_msg(log_level lvl, const char* fmt, ...) {
  if (static_cast<int>(lvl) > g_level.load(std::memory_order_relaxed)) return;
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  va_end(args);
  std::lock_guard<std::mutex> lock(g_mutex);
  ring_record(lvl, msg);
  if (g_sink)
    g_sink(lvl, msg);
  else
    default_sink(lvl, msg);
}

std::vector<std::string> log_tail(int max) {
  std::vector<std::string> out;
  if (max <= 0) return out;
  std::lock_guard<std::mutex> lock(g_mutex);
  const std::uint64_t head = g_log_head.load(std::memory_order_relaxed);
  std::uint64_t n = head < kLogSlots ? head : kLogSlots;
  if (n > static_cast<std::uint64_t>(max)) n = static_cast<std::uint64_t>(max);
  out.reserve(n);
  for (std::uint64_t i = head - n; i < head; ++i) {
    const log_slot& slot = g_log_ring[i % kLogSlots];
    const std::uint32_t len = slot.len.load(std::memory_order_acquire);
    const auto lvl = static_cast<log_level>(
        slot.lvl.load(std::memory_order_relaxed));
    std::string rec = "[";
    rec += log_level_name(lvl);
    rec += "] ";
    rec.append(slot.text, len);
    out.push_back(std::move(rec));
  }
  return out;
}

FLASHR_SIGNAL_SAFE void log_dump_raw(raw_sink& sink) noexcept {
  // Snapshot first so lengths cannot change between sizing the section and
  // writing it (a concurrent logger may still be mid-copy; its record comes
  // out truncated, never misframed). Static: one writer (the dump-once
  // guard) and no large stack frames on the crash path.
  struct snap_slot {
    std::uint32_t lvl;
    std::uint32_t len;
    char text[kLogText];
  };
  static snap_slot snap[kLogSlots];
  const std::uint64_t head = g_log_head.load(std::memory_order_relaxed);
  const std::uint64_t n = head < kLogSlots ? head : kLogSlots;
  std::uint64_t payload = 8 + 4;
  for (std::uint64_t i = 0; i < n; ++i) {
    const log_slot& slot = g_log_ring[(head - n + i) % kLogSlots];
    snap[i].lvl = slot.lvl.load(std::memory_order_relaxed);
    std::uint32_t len = slot.len.load(std::memory_order_relaxed);
    if (len > kLogText) len = kLogText;
    snap[i].len = len;
    std::memcpy(snap[i].text, slot.text, len);
    payload += 8 + len;
  }
  sink_tag(sink, "LOGR", payload);
  sink_u64(sink, head);
  sink_u32(sink, static_cast<std::uint32_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    sink_u32(sink, snap[i].lvl);
    sink_u32(sink, snap[i].len);
    sink_put(sink, snap[i].text, snap[i].len);
  }
}

}  // namespace flashr
