// Asynchronous I/O service (§3.2.1, §3.3).
//
// FlashR reads I/O partitions asynchronously: the executor's prefetch
// pipeline keeps a window of partition reads in flight and computes on
// partitions as they complete; writes of materialized partitions are likewise
// issued asynchronously so compute never stalls on the SSDs. The service is a
// small pool of dedicated I/O threads draining a FIFO of pread/pwrite
// requests against safs_files; a compute worker with nothing to claim in the
// prefetch window runs the oldest queued request itself (help_one), so
// io_threads is a floor on read parallelism, not a cap. Every read completes
// through one callback, on the thread that runs the request: an I/O thread,
// or a worker helping from pop(). A caller that needs to wait (a
// synchronous partition read, a sparse block batch) joins its reads with a
// read_join; writes carry their buffer's ownership and are tracked so a pass
// can drain them before finishing.
//
// Write-behind is bounded by a byte budget (conf().max_inflight_write_bytes):
// submit_write blocks while the in-flight write volume is over budget, and
// the thread that finishes a write releases its bytes and wakes the
// throttled submitters. Within the budget, a worker about to claim more work
// while more writes are queued than its prefetch window holds runs queued
// requests first (queued_writes), so write-behind stays near the window when
// the I/O threads fall behind. The queue, its write count and the stop flag
// are GUARDED_BY(io_mtx_), the budget state GUARDED_BY(budget_mtx_); the
// FLASHR_THREAD_SAFETY build proves no path touches them unlocked.
//
// async_io::global() is the process-wide service, rebuilt (after draining
// the old service's writes) when conf().io_threads changes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"

namespace flashr {

class async_io {
 public:
  /// Invoked when a read completes, on the thread that runs the request:
  /// an I/O thread, or a worker helping from pop(). The argument is null on
  /// success, the I/O error otherwise. Must not block on I/O.
  using completion_fn = std::function<void(std::exception_ptr)>;

  explicit async_io(int num_threads);
  ~async_io();
  async_io(const async_io&) = delete;
  async_io& operator=(const async_io&) = delete;

  /// Read [offset, offset+len) of `file` into `buf`; `done` is invoked once
  /// the data landed (or the read failed), on the thread that runs the
  /// request: an I/O thread, or a worker helping from pop(). The caller
  /// keeps ownership of `buf` and must keep it alive until `done` runs. The
  /// service's only read submission.
  void submit_read_notify(std::shared_ptr<const safs_file> file,
                          std::size_t offset, std::size_t len, char* buf,
                          completion_fn done);

  /// Write [offset, offset+len) of `file` from `buf`. Ownership of `buf`
  /// moves to the request; the buffer returns to its pool when the write
  /// completes. Errors are deferred and rethrown by the next drain_writes().
  /// Blocks while the in-flight write volume exceeds
  /// conf().max_inflight_write_bytes (a single over-budget write is always
  /// admitted once nothing is in flight, so the bound never deadlocks).
  void submit_write(std::shared_ptr<safs_file> file, std::size_t offset,
                    std::size_t len, pool_buffer buf);

  /// Wait until all submitted writes have completed; rethrows the first
  /// deferred write error if any.
  void drain_writes();

  /// Run the oldest queued request, read or write, on the calling thread,
  /// exactly as an I/O thread would (throttle, fault shims, stats, stall
  /// site, completion); false when the FIFO is empty. Only the prefetch
  /// pipeline's windowed pop() calls this: while it has nothing to claim,
  /// and while too many writes wait (queued_writes()). The request's
  /// completion takes the window, join, budget and pool locks, so the
  /// caller must hold no ranked lock (checked when invariants are on).
  bool help_one() noexcept;

  /// Write requests in the FIFO that no thread has started yet; pop()
  /// compares it with its window depth to bound write-behind memory.
  std::size_t queued_writes() const;

  /// Writes submitted but not yet completed. Unlike drain_writes(), polling
  /// this does NOT consume a deferred write error — tests use it to wait
  /// for a failing write to finish while keeping the error observable.
  int pending_writes() const;

  /// Write-behind bound accounting (exec snapshots these around a pass).
  struct write_throttle_stats {
    std::size_t stalls = 0;          ///< submit_write calls that blocked
    std::uint64_t stall_ns = 0;      ///< total time spent blocked
    std::size_t hwm_bytes = 0;       ///< in-flight write bytes high-water mark
    std::size_t inflight_bytes = 0;  ///< current in-flight write bytes
  };
  write_throttle_stats throttle_stats() const;
  /// Reset the high-water mark to the current in-flight volume (start of a
  /// pass); stall counters are cumulative and diffed by the caller.
  void reset_throttle_hwm();

  /// One JSON object describing the service for incident bundles and the
  /// /debug routes: queue depth, the completion clock and the write-budget
  /// accounting.
  std::string debug_snapshot() const;

  /// Timestamp (flashr::now_ns) of the most recent completed I/O request,
  /// read or write; 0 until the first completion. The hung-I/O watchdog
  /// (core/governor.h) compares this against a stalled pass's own
  /// completion clock to distinguish "the SSDs stopped answering" from
  /// "only this pass is starved".
  std::uint64_t last_completion_ns() const {
    return last_completion_ns_.load(std::memory_order_relaxed);
  }

  /// The live service for the current configuration.
  static async_io& global();

 private:
  struct request {
    std::shared_ptr<const safs_file> rfile;
    std::shared_ptr<safs_file> wfile;
    std::size_t offset = 0;
    std::size_t len = 0;
    char* rbuf = nullptr;
    pool_buffer wbuf;
    completion_fn notify;
    bool is_write = false;
  };

  void enqueue(request req);
  /// Dequeue the FIFO's oldest request (non-empty FIFO).
  request pop_front() REQUIRES(io_mtx_);
  void io_loop();
  /// Serve one dequeued request on the calling thread; the body of both
  /// io_loop() and help_one(), so the two paths cannot drift apart.
  void run(request& req);

  /// Admit one write of `len` bytes under the byte budget: blocks while the
  /// budget is exhausted, then charges it and bumps the pending count.
  void admit_write(std::size_t len);
  /// Account one finished write: record its deferred error (first wins),
  /// release its byte budget and wake drainers/throttled submitters. Runs
  /// between requests on the thread that runs the request: an I/O thread,
  /// or a worker helping from pop(). So it must never block or allocate
  /// (the analyzer verifies that; the budget mutex rank is
  /// nonblocking-safe).
  void complete_write(std::size_t len, std::exception_ptr err)
      FLASHR_NONBLOCKING;

  mutable mutex io_mtx_ LOCK_RANK(async_queue);
  cond_var cv_;
  std::deque<request> queue_ GUARDED_BY(io_mtx_);
  bool stop_ GUARDED_BY(io_mtx_) = false;
  /// Writes in queue_.
  std::size_t queued_writes_ GUARDED_BY(io_mtx_) = 0;

  mutable mutex budget_mtx_ LOCK_RANK(io_write_budget);
  cond_var cv_drained_;
  /// Signalled when in-flight write bytes drop (throttled submitters wait).
  cond_var cv_write_budget_;
  int pending_writes_ GUARDED_BY(budget_mtx_) = 0;
  std::size_t inflight_write_bytes_ GUARDED_BY(budget_mtx_) = 0;
  std::size_t write_hwm_bytes_ GUARDED_BY(budget_mtx_) = 0;
  std::size_t throttle_stalls_ GUARDED_BY(budget_mtx_) = 0;
  std::uint64_t throttle_stall_ns_ GUARDED_BY(budget_mtx_) = 0;
  std::exception_ptr write_error_ GUARDED_BY(budget_mtx_);
  std::atomic<std::uint64_t> last_completion_ns_{0};
  /// Declared last: the I/O threads use every member above.
  std::vector<std::thread> threads_;
};

/// Join of a group of reads: one em_col_view partition's column reads, a
/// synchronous partition read, one sparse block batch. It counts its member
/// reads and keeps the first error; when the last member lands it wakes
/// wait() and then runs `done`, if any. Each member's completion holds a
/// shared_ptr to the join, so the join outlives its last completion.
class read_join {
 public:
  explicit read_join(std::size_t reads, async_io::completion_fn done = {})
      : remaining_(reads), done_(std::move(done)) {}
  read_join(const read_join&) = delete;
  read_join& operator=(const read_join&) = delete;

  /// The completion of one member read, for submit_read_notify.
  static async_io::completion_fn member(std::shared_ptr<read_join> join) {
    return [join = std::move(join)](std::exception_ptr err) {
      join->complete(std::move(err));
    };
  }

  /// Block until every member read landed, then rethrow the first error. A
  /// failed member never ends the wait early, so the caller releases no
  /// buffer a sibling read may still write into.
  void wait();

 private:
  /// Account one member read. Runs on the thread that ran the read (an I/O
  /// thread, or a worker helping from pop()), so it must never block: only
  /// the nonblocking-safe join mutex is taken, and `done` runs after it is
  /// released.
  void complete(std::exception_ptr err) FLASHR_NONBLOCKING;

  mutex join_mtx_ LOCK_RANK(io_join);
  cond_var cv_landed_;
  std::size_t remaining_ GUARDED_BY(join_mtx_);
  std::exception_ptr error_ GUARDED_BY(join_mtx_);
  const async_io::completion_fn done_;
};

}  // namespace flashr
