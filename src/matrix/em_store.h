// External-memory tall matrix storage: one SAFS file per matrix (§3.2.1).
//
// Partition p occupies the file range [p * full_part_bytes, ...): full-size
// slots keep every partition at a computable, 4 KiB-aligned offset (the last
// partition's slot is padded). Within the slot, data is packed column-major
// with stride = rows in the partition, identical to mem_store, so a read
// buffer can be consumed by the same kernels.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "io/safs.h"
#include "mem/buffer_pool.h"
#include "matrix/matrix_store.h"

namespace flashr {

/// Anything the executor can stream from the SSDs partition by partition:
/// a whole EM matrix, or a column view of one. Reads always deliver packed
/// col-major data with stride = rows in the partition.
class em_readable : public matrix_store {
 public:
  using matrix_store::matrix_store;

  /// Completion callback for read_part_notify; runs on the thread that runs
  /// the request (an I/O thread, or a worker helping from pop()) with a
  /// null pointer on success, the I/O error otherwise.
  using read_callback = std::function<void(std::exception_ptr)>;

  /// Read partition `pidx` into `buf` (which must hold
  /// geom().part_bytes(pidx, type())): `done` is invoked once the whole
  /// partition landed in `buf` (checksum verification included), on the
  /// thread that runs the request: an I/O thread, or a worker helping from
  /// pop(). The one asynchronous partition read; the caller keeps `buf`
  /// alive until `done` runs.
  virtual void read_part_notify(std::size_t pidx, char* buf,
                                read_callback done) const = 0;

  /// Synchronous partition read (host gathers, tests): read_part_notify,
  /// waited on through a read_join (io/async_io.h). Returns, or rethrows
  /// the first error, only once every read into `buf` has landed.
  void read_part(std::size_t pidx, char* buf) const;
};

class em_store final : public em_readable {
 public:
  using ptr = std::shared_ptr<em_store>;

  /// Create an (uninitialized) EM matrix backed by a fresh SAFS file.
  static ptr create(std::size_t nrow, std::size_t ncol, scalar_type type,
                    std::size_t part_rows = 0);

  store_kind kind() const override { return store_kind::ext; }

  void read_part_notify(std::size_t pidx, char* buf,
                        read_callback done) const override;

  /// Asynchronously write partition `pidx`, taking ownership of `buf`.
  /// Submission is throttled by conf().max_inflight_write_bytes (bounded
  /// write-behind; see io/async_io.h).
  void write_part_async(std::size_t pidx, pool_buffer buf);

  /// Synchronous partition write.
  void write_part(std::size_t pidx, const char* buf);

  /// Wait for all outstanding writes to this (and any other) EM store.
  static void drain_writes();

  const std::shared_ptr<safs_file>& file() const { return file_; }

  /// Check `buf` (partition `pidx`, just read) against the recorded CRC32.
  /// No-op when conf().io_checksum is off or the partition was never written
  /// with checksumming enabled. Under `repair`, a mismatch triggers one
  /// synchronous re-read of the partition before escalating; an unrecovered
  /// mismatch throws io_error and bumps io_stats.checksum_failures.
  void verify_part(std::size_t pidx, char* buf) const;

 private:
  friend class em_col_view;
  em_store(part_geom geom, scalar_type type, std::shared_ptr<safs_file> file);

  std::size_t part_offset(std::size_t pidx) const {
    return pidx * geom_.full_part_bytes(type_);
  }

  /// Record the CRC32 of partition `pidx` (about to be written from `buf`)
  /// in the sidecar, when checksumming is on.
  void record_checksum(std::size_t pidx, const char* buf);

  std::shared_ptr<safs_file> file_;
  /// Per partition: 1 once a CRC has been recorded in the sidecar. Reads
  /// only verify recorded partitions, so flipping the policy mid-life never
  /// fails on pre-policy data.
  mutable std::vector<std::atomic<char>> has_crc_;
};

/// A column subset of an EM matrix, readable as a leaf: partition reads
/// fetch ONLY the selected columns (each column of a partition is a
/// contiguous file range, and SAFS's hash striping spreads those ranges over
/// the whole "SSD array" — the paper's §3.2.1 rationale). Column selection
/// on SSD-resident data thus reduces I/O proportionally instead of reading
/// whole partitions and discarding columns.
class em_col_view final : public em_readable {
 public:
  using ptr = std::shared_ptr<em_col_view>;

  static ptr create(std::shared_ptr<const em_store> base,
                    std::vector<std::size_t> cols);

  store_kind kind() const override { return store_kind::ext; }

  void read_part_notify(std::size_t pidx, char* buf,
                        read_callback done) const override;

  const std::vector<std::size_t>& cols() const { return cols_; }
  const std::shared_ptr<const em_store>& base() const { return base_; }

 private:
  em_col_view(part_geom geom, std::shared_ptr<const em_store> base,
              std::vector<std::size_t> cols)
      : em_readable(geom, base->type()),
        base_(std::move(base)),
        cols_(std::move(cols)) {}

  std::shared_ptr<const em_store> base_;
  std::vector<std::size_t> cols_;
};

}  // namespace flashr
