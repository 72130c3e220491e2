// SAFS-like user-space storage for external-memory matrices.
//
// The paper stores SSD-based matrices as SAFS files [37]: a user-space
// filesystem that stripes a file's data across an array of SSDs and accesses
// it with asynchronous direct I/O, mapping stripe units to devices with a
// hash function so any access pattern spreads load over all SSDs (§3.2.1).
//
// This module reproduces that design over regular files: a safs_file is a
// logical byte range striped across `conf().stripes` backing files (the
// simulated SSD array) in units of `conf().stripe_unit` bytes, placed either
// by hash (default, as in the paper) or round-robin. I/O goes through
// pread/pwrite with optional O_DIRECT; all engine I/O is partition-aligned
// and buffers are 4 KiB aligned, so O_DIRECT works when the underlying
// filesystem allows it and degrades to buffered I/O when it does not.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace flashr {

/// Process-wide I/O statistics. Tests use these to assert the one-pass
/// property (each EM partition read exactly once per DAG execution);
/// benchmarks report them alongside runtimes.
struct io_stats {
  std::atomic<std::size_t> read_ops{0};
  std::atomic<std::size_t> read_bytes{0};
  std::atomic<std::size_t> write_ops{0};
  std::atomic<std::size_t> write_bytes{0};
  /// Syscall retries absorbed by the safs layer (EINTR and transient
  /// EAGAIN/EIO). Resilience tests assert these against a fault budget.
  std::atomic<std::size_t> retries{0};
  /// Faults fired by the injection schedule (io/fault.h), all sites.
  std::atomic<std::size_t> injected_faults{0};
  /// Partition checksum mismatches that escalated to io_error.
  std::atomic<std::size_t> checksum_failures{0};
  /// Partition checksum mismatches recovered by a repair re-read.
  std::atomic<std::size_t> checksum_repairs{0};

  void reset() {
    read_ops = 0;
    read_bytes = 0;
    write_ops = 0;
    write_bytes = 0;
    retries = 0;
    injected_faults = 0;
    checksum_failures = 0;
    checksum_repairs = 0;
  }

  static io_stats& global();
};

/// How stripe units map to backing files.
enum class stripe_placement : int {
  hash = 0,        ///< paper default: hash of the stripe-unit index
  round_robin = 1  ///< unit i -> file i % stripes
};

class safs_file {
 public:
  /// Create a striped file of `bytes` logical bytes under conf().em_dir.
  /// `name` must be unique among live safs files. Backing files are removed
  /// when the safs_file is destroyed. `checksum_slots` > 0 additionally
  /// creates a sidecar region (a buffered companion file) holding that many
  /// u32 checksum slots — em_store uses one slot per I/O partition.
  static std::shared_ptr<safs_file> create(
      const std::string& name, std::size_t bytes,
      stripe_placement placement = stripe_placement::hash,
      std::size_t checksum_slots = 0);

  ~safs_file();
  safs_file(const safs_file&) = delete;
  safs_file& operator=(const safs_file&) = delete;

  std::size_t size() const { return size_; }
  const std::string& name() const { return name_; }
  int num_stripes() const { return static_cast<int>(fds_.size()); }

  /// Synchronous read/write of a logical range, translated through the
  /// striping map. Thread-safe (pread/pwrite are positional). Statistics are
  /// recorded and the global throughput throttle applied by the async layer,
  /// not here.
  void read(std::size_t offset, std::size_t len, char* buf) const;
  void write(std::size_t offset, std::size_t len, const char* buf);

  /// Checksum sidecar access (valid when created with checksum_slots > 0).
  /// Slots are plain u32s in a buffered companion file; sidecar I/O is
  /// EINTR-safe but deliberately NOT fault-injected — an injected sidecar
  /// EOF would forge a checksum mismatch instead of testing one.
  bool has_checksums() const { return crc_fd_ >= 0; }
  void write_checksum(std::size_t slot, std::uint32_t crc);
  std::uint32_t read_checksum(std::size_t slot) const;

  /// Backing file path of stripe `s` (tests corrupt these directly).
  const std::string& stripe_path(int s) const {
    return paths_[static_cast<std::size_t>(s)];
  }

 private:
  safs_file(std::string name, std::size_t bytes, stripe_placement placement,
            std::size_t checksum_slots);

  struct segment {
    int file;               // backing file index
    std::size_t file_off;   // offset within that file
    std::size_t len;        // bytes in this segment
  };
  /// Split a logical range into per-backing-file segments.
  std::vector<segment> map_range(std::size_t offset, std::size_t len) const;

  std::string name_;
  std::size_t size_;
  std::size_t unit_;
  stripe_placement placement_;
  std::vector<int> fds_;
  std::vector<std::string> paths_;
  /// For each stripe unit: backing file index and dense slot in that file.
  std::vector<std::uint32_t> unit_file_;
  std::vector<std::uint64_t> unit_slot_;
  /// Checksum sidecar (absent unless checksum_slots > 0 at creation).
  int crc_fd_ = -1;
  std::string crc_path_;
  std::size_t checksum_slots_ = 0;
};

/// Token-bucket throughput limiter emulating a bounded SSD array.
/// Configured from conf().io_throttle_mbps; 0 disables it.
class io_throttle {
 public:
  /// Block until `bytes` of I/O budget is available at the configured rate.
  void acquire(std::size_t bytes);
  static io_throttle& global();

 private:
  std::atomic<std::int64_t> next_free_ns_{0};
};

}  // namespace flashr
