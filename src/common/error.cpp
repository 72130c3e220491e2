#include "common/error.h"

#include <cstring>

#include "obs/crash_handler.h"

namespace flashr {

namespace {
std::string describe(const std::string& what, const std::string& path,
                     std::size_t offset, std::size_t len, int err) {
  std::string s = what;
  s += " (file=" + path;
  s += " offset=" + std::to_string(offset);
  s += " len=" + std::to_string(len);
  if (err != 0) {
    s += " errno=" + std::to_string(err);
    s += " ";
    s += std::strerror(err);
  }
  s += ")";
  return s;
}
}  // namespace

io_error::io_error(const std::string& what, std::string path,
                   std::size_t offset, std::size_t len, int err)
    : error(describe(what, path, offset, len, err)),
      path_(std::move(path)),
      offset_(offset),
      len_(len),
      err_(err) {}

namespace {
std::string describe_timeout(const std::string& what, std::uint64_t pass_id,
                             std::uint64_t elapsed_ns, std::uint64_t limit_ms) {
  std::string s = what;
  s += " (pass=" + std::to_string(pass_id);
  s += " elapsed_ms=" + std::to_string(elapsed_ns / 1000000);
  s += " limit_ms=" + std::to_string(limit_ms);
  s += ")";
  return s;
}

std::string describe_overload(const std::string& what, std::uint64_t pass_id,
                              std::uint64_t requested, std::uint64_t budget) {
  std::string s = what;
  s += " (pass=" + std::to_string(pass_id);
  s += " requested=" + std::to_string(requested);
  s += " budget=" + std::to_string(budget);
  s += ")";
  return s;
}
}  // namespace

timeout_error::timeout_error(const std::string& what, std::uint64_t pass_id,
                             std::uint64_t elapsed_ns, std::uint64_t limit_ms)
    : error(describe_timeout(what, pass_id, elapsed_ns, limit_ms)),
      pass_id_(pass_id),
      elapsed_ns_(elapsed_ns),
      limit_ms_(limit_ms) {}

overload_error::overload_error(const std::string& what, std::uint64_t pass_id,
                               std::uint64_t requested, std::uint64_t budget)
    : error(describe_overload(what, pass_id, requested, budget)),
      pass_id_(pass_id),
      requested_(requested),
      budget_(budget) {}

void throw_error(const std::string& msg) { throw error(msg); }
void throw_io_error(const std::string& msg) { throw io_error(msg); }
void throw_io_error_at(const std::string& msg, std::string path,
                       std::size_t offset, std::size_t len, int err) {
  throw io_error(msg, std::move(path), offset, len, err);
}
void throw_shape_error(const std::string& msg) { throw shape_error(msg); }

namespace detail {

void assert_fail(const char* expr, const char* file, int line,
                 const std::string& msg) {
  std::fprintf(stderr, "flashr assertion failed: %s at %s:%d: %s\n", expr,
               file, line, msg.c_str());
  // Black-box dump before dying (no-op unless the crash handler is armed).
  // Fixed buffer, no allocation: a lock-rank abort arrives holding engine
  // locks, and the least surprising composition wins right before abort().
  // The subsequent SIGABRT handler finds the dump-once guard already taken.
  char reason[512];
  std::snprintf(reason, sizeof(reason), "assert: %s at %s:%d: %s", expr, file,
                line, msg.c_str());
  obs::crash_dump_now(0, reason);
  std::abort();
}

}  // namespace detail
}  // namespace flashr
