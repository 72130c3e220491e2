// Shared asynchronous partition prefetch pipeline (§3.2.1, §3.3).
//
// The paper's core performance claim is that SSD-backed execution approaches
// in-memory speed because asynchronous I/O fully overlaps with compute. This
// module is that overlap: one pipeline per pass keeps a window of `depth`
// partition reads in flight across the WHOLE pass, handing out partition ids
// 0, 1, 2, ... from its own cursor and issuing completion-notified reads for
// every external-memory leaf of the DAG. Workers pop *completed* partitions:
//
//  * completion-order mode (default): pop() returns whichever windowed
//    partition finished first, so one slow read never stalls a worker while
//    later reads have already landed;
//  * sequential mode (DAGs with cumulative ops): pop() returns partitions in
//    strictly increasing dispatch order, preserving the carry-chain protocol
//    of core/exec (a worker blocked on partition p's carry is guaranteed that
//    p is owned by a peer);
//  * depth 0 (no read-ahead, the ablation baseline): the same pop() with a
//    window whose capacity is the number of workers waiting in pop(). A
//    worker with nothing to claim issues the next partition's reads, then
//    helps and waits like any other popper, so nothing is read ahead of a
//    waiting worker and no occupancy is sampled.
//
// Every pop refills the window, so reads stay `depth` partitions ahead of
// compute for the whole pass. Cancellation: cancel() stops refilling and
// wakes blocked poppers with pipeline_cancelled; settle() blocks until no
// read is in flight, after which destroying the pipeline provably returns
// every window buffer to the pool (the zero-leak guarantee of the pass
// audit).
//
// Shared state lives in a shared_ptr'd block captured by the I/O completion
// callbacks, so a callback can never touch a destroyed pipeline; all of it
// is GUARDED_BY the block's mutex for the FLASHR_THREAD_SAFETY build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.h"
#include "matrix/em_store.h"
#include "mem/buffer_pool.h"

namespace flashr::exec {

/// Thrown out of pop() when the pipeline was cancelled while (or before) a
/// worker waited. Caught at the worker's top level, never escapes a pass.
struct pipeline_cancelled {};

class prefetch_pipeline {
 public:
  /// A completed partition handed to a worker: the partition id and one
  /// filled read buffer per EM leaf (empty when the DAG has no EM leaves).
  struct slot {
    std::size_t part = 0;
    std::unordered_map<const em_readable*, pool_buffer> bufs;
  };

  /// Pipeline-side counters feeding exec::pass_stats. The pass times its
  /// workers' read wait itself, around pop().
  struct stats {
    std::uint64_t occupancy_sum = 0;   ///< window size sampled at each pop
    std::uint64_t pops = 0;            ///< completed partitions handed out
    std::size_t reads_issued = 0;      ///< async partition reads submitted
  };

  /// Partitions [0, num_parts) are handed out in increasing order. `depth`
  /// is the maximum number of partitions with reads in flight or
  /// completed-but-unclaimed; 0 reads no partition ahead of a worker
  /// waiting in pop(). `sequential` forces claims in that order. Reads for
  /// the first `depth` partitions are issued before the constructor
  /// returns.
  prefetch_pipeline(std::vector<const em_readable*> leaves,
                    std::size_t num_parts, std::size_t depth, bool sequential);
  /// Cancels and settles; afterwards every window buffer is back in the
  /// pool.
  ~prefetch_pipeline();
  prefetch_pipeline(const prefetch_pipeline&) = delete;
  prefetch_pipeline& operator=(const prefetch_pipeline&) = delete;

  /// Block until a completed partition is available and claim it. Returns
  /// false when every partition was handed out and the window drained;
  /// throws pipeline_cancelled after cancel(), and rethrows a partition's
  /// read error to the claiming worker. The caller runs queued I/O requests
  /// itself (async_io::help_one) before it claims while more writes than
  /// `depth` wait, and before it sleeps with nothing claimable, so it must
  /// hold no ranked lock.
  bool pop(slot& out);

  /// Stop refilling and wake every blocked pop() with pipeline_cancelled.
  /// Completed-but-unclaimed buffers are released when the pipeline is
  /// destroyed (after settle()).
  void cancel() noexcept;

  /// Block until no read is in flight (their buffers are then safely
  /// releasable). Cheap no-op on a drained pipeline.
  void settle() noexcept;

  bool sequential() const { return sequential_; }
  stats pipeline_stats() const;

  /// Watchdog probe (core/governor.h): leaf reads currently in flight and
  /// the flashr::now_ns() timestamp of this pipeline's most recent read
  /// completion (0 before the first). A pass with inflight_reads > 0 whose
  /// last_completion_ns stops advancing is hung on the storage, not slow.
  struct io_progress {
    std::size_t inflight_reads = 0;
    std::uint64_t last_completion_ns = 0;
  };
  io_progress progress() const;

 private:
  /// One windowed partition: its read buffers, the count of its outstanding
  /// leaf reads, and the first read error. Fields are protected by the
  /// owning pf_state's mutex (shared_ptr-held, so unannotatable).
  struct pf_inflight {
    std::size_t part = 0;
    std::unordered_map<const em_readable*, pool_buffer> bufs;
    std::size_t remaining = 0;
    std::exception_ptr error;
  };

  /// Shared queue state, co-owned by the I/O completion callbacks.
  struct pf_state {
    mutable mutex win_mtx LOCK_RANK(prefetch_window);
    cond_var cv;
    /// Window in dispatch (partition) order; completed slots may sit behind
    /// still-reading ones in completion-order mode.
    std::deque<std::shared_ptr<pf_inflight>> window GUARDED_BY(win_mtx);
    bool cancelled GUARDED_BY(win_mtx) = false;
    /// The next partition to hand out; num_parts_ once all were.
    std::size_t next_part GUARDED_BY(win_mtx) = 0;
    /// Leaf reads submitted and not yet notified; settle() waits on this.
    std::size_t outstanding_reads GUARDED_BY(win_mtx) = 0;
    /// Workers inside pop(): the window's capacity at depth 0.
    std::size_t poppers GUARDED_BY(win_mtx) = 0;
    stats st GUARDED_BY(win_mtx);
    /// Atomic (not guarded): stamped by completion callbacks and read by
    /// the watchdog thread without taking the pipeline lock.
    std::atomic<std::uint64_t> last_completion_ns{0};
  };

  /// Issue reads until the window holds `depth_` partitions (at depth 0,
  /// one per worker waiting in pop()) or every partition was handed out.
  /// Returns whether it issued any.
  bool refill(pf_state& s) REQUIRES(s.win_mtx);
  /// Async-I/O completion for one leaf read of one windowed partition.
  /// Runs between requests on the thread that runs the request: an I/O
  /// thread, or a worker helping from pop(). So it must never block: it
  /// takes only nonblocking-safe leaf locks (the window mutex, and the pool
  /// mutex via bufs.clear()) and allocates nothing — the analyzer verifies
  /// that transitively.
  static void on_leaf_read_complete(const std::shared_ptr<pf_state>& st,
                                    const std::shared_ptr<pf_inflight>& fl,
                                    std::exception_ptr err) FLASHR_NONBLOCKING;

  std::vector<const em_readable*> leaves_;
  const std::size_t num_parts_;
  const std::size_t depth_;
  const bool sequential_;
  std::shared_ptr<pf_state> st_;
};

}  // namespace flashr::exec
