// Global sequential dynamic task scheduler (§3.3).
//
// FlashR dispatches I/O partitions to threads *sequentially* (partition ids
// strictly increase across dispatches — this maximizes contiguity on SSDs so
// reads coalesce and writes merge) and *dynamically* (threads pull the next
// batch when idle — this load-balances). A dispatch initially hands a thread
// several contiguous partitions so they can be read in one asynchronous I/O;
// as the pass nears the end, dispatches shrink to single partitions so the
// tail is balanced.
#pragma once

#include <atomic>
#include <cstddef>

namespace flashr {

class part_scheduler {
 public:
  /// Schedule partitions [0, num_parts) with `num_threads` consumers.
  /// `initial_batch` partitions are handed out per dispatch while plenty of
  /// work remains.
  part_scheduler(std::size_t num_parts, int num_threads, int initial_batch)
      : num_parts_(num_parts),
        num_threads_(num_threads < 1 ? 1 : num_threads),
        initial_batch_(initial_batch < 1 ? 1 : initial_batch) {}

  /// Fetch the next contiguous range of partitions. Returns false when the
  /// pass is complete.
  bool fetch(std::size_t& begin, std::size_t& end) {
    for (;;) {
      std::size_t cur = next_.load(std::memory_order_relaxed);
      if (cur >= num_parts_) return false;
      const std::size_t remaining = num_parts_ - cur;
      // Shrink to single-partition dispatches for the last
      // num_threads * initial_batch partitions (tail balancing).
      std::size_t batch =
          remaining > static_cast<std::size_t>(num_threads_) *
                          static_cast<std::size_t>(initial_batch_)
              ? static_cast<std::size_t>(initial_batch_)
              : 1;
      if (batch > remaining) batch = remaining;
      if (next_.compare_exchange_weak(cur, cur + batch,
                                      std::memory_order_relaxed)) {
        begin = cur;
        end = cur + batch;
        return true;
      }
    }
  }

 private:
  const std::size_t num_parts_;
  const int num_threads_;
  const int initial_batch_;
  std::atomic<std::size_t> next_{0};
};

/// Static alternative used by the scheduling ablation benchmark: partition i
/// goes to thread i % num_threads, no dynamic balancing, dispatches are not
/// sequential across threads.
class static_scheduler {
 public:
  static_scheduler(std::size_t num_parts, int num_threads)
      : num_parts_(num_parts), num_threads_(num_threads < 1 ? 1 : num_threads) {}

  /// Next partition for `thread_idx`, or false when that thread's stripe is
  /// exhausted. `cursor` is the thread-local iteration state, starting at 0.
  bool fetch(int thread_idx, std::size_t& cursor, std::size_t& part) const {
    const std::size_t idx =
        cursor * static_cast<std::size_t>(num_threads_) +
        static_cast<std::size_t>(thread_idx);
    if (idx >= num_parts_) return false;
    part = idx;
    ++cursor;
    return true;
  }

 private:
  const std::size_t num_parts_;
  const int num_threads_;
};

}  // namespace flashr
