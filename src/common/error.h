// Error handling: all recoverable failures surface as flashr::error; internal
// invariant violations use FLASHR_ASSERT which aborts with a message. Per the
// C++ Core Guidelines we throw exceptions for errors a caller can react to
// (bad shapes, I/O failures) and assert on programming errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace flashr {

class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// I/O failure. The detailed constructor captures the failing file, byte
/// range and errno so callers (and the fault-injection tests) can react to
/// *where* the storage failed, not just that it did; the fields are appended
/// to what().
class io_error : public error {
 public:
  explicit io_error(const std::string& what) : error(what) {}
  io_error(const std::string& what, std::string path, std::size_t offset,
           std::size_t len, int err);

  const std::string& path() const noexcept { return path_; }
  std::size_t offset() const noexcept { return offset_; }
  std::size_t len() const noexcept { return len_; }
  /// Captured errno, or 0 when the failure is not a syscall (e.g. a
  /// checksum mismatch).
  int err() const noexcept { return err_; }

 private:
  std::string path_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
  int err_ = 0;
};

class shape_error : public error {
 public:
  explicit shape_error(const std::string& what) : error(what) {}
};

/// A pass exceeded its deadline, or the hung-I/O watchdog found its reads
/// stalled. Carries the pass id, the elapsed time
/// when the watchdog tripped, and the deadline/stall bound that was
/// exceeded, so callers and tests can tell *which* limit fired.
class timeout_error : public error {
 public:
  timeout_error(const std::string& what, std::uint64_t pass_id,
                std::uint64_t elapsed_ns, std::uint64_t limit_ms);

  std::uint64_t pass_id() const noexcept { return pass_id_; }
  std::uint64_t elapsed_ns() const noexcept { return elapsed_ns_; }
  /// The bound that fired: deadline_ms for a deadline trip,
  /// watchdog_stall_ms for a hung-I/O trip.
  std::uint64_t limit_ms() const noexcept { return limit_ms_; }

 private:
  std::uint64_t pass_id_ = 0;
  std::uint64_t elapsed_ns_ = 0;
  std::uint64_t limit_ms_ = 0;
};

/// The resource governor could not admit a pass: its footprint exceeds
/// conf().mem_budget_bytes even fully degraded. Retrying the same call with
/// the same budget fails the same way.
class overload_error : public error {
 public:
  overload_error(const std::string& what, std::uint64_t pass_id,
                 std::uint64_t requested, std::uint64_t budget);

  std::uint64_t pass_id() const noexcept { return pass_id_; }
  /// The footprint of the ladder's last rung and the budget it was checked
  /// against, in bytes.
  std::uint64_t requested() const noexcept { return requested_; }
  std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint64_t pass_id_ = 0;
  std::uint64_t requested_ = 0;
  std::uint64_t budget_ = 0;
};

[[noreturn]] void throw_error(const std::string& msg);
[[noreturn]] void throw_io_error(const std::string& msg);
[[noreturn]] void throw_io_error_at(const std::string& msg, std::string path,
                                    std::size_t offset, std::size_t len,
                                    int err);
[[noreturn]] void throw_shape_error(const std::string& msg);

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);
}

}  // namespace flashr

#define FLASHR_ASSERT(expr, msg)                                          \
  do {                                                                    \
    if (!(expr)) ::flashr::detail::assert_fail(#expr, __FILE__, __LINE__, \
                                               (msg));                   \
  } while (0)

#define FLASHR_CHECK(expr, msg)                \
  do {                                         \
    if (!(expr)) ::flashr::throw_error((msg)); \
  } while (0)

#define FLASHR_CHECK_SHAPE(expr, msg)                \
  do {                                               \
    if (!(expr)) ::flashr::throw_shape_error((msg)); \
  } while (0)
