// A fixed-size pool of worker threads used for every parallel pass the engine
// makes. Workers are long-lived (created once per configuration) and execute
// "jobs": a job runs the same callable on workers 0 .. n-1, passing the
// worker index; the submitting thread participates as worker 0, so a job of
// one participant (or a pool of size 1) runs serially with no
// synchronization overhead.
//
// The job handshake (publish job -> workers run -> last worker signals done)
// is annotated for clang thread-safety analysis: every shared field is
// GUARDED_BY(job_mtx_), so an unlocked access fails the FLASHR_THREAD_SAFETY
// build.
#pragma once

#include <exception>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/thread_safety.h"

namespace flashr {

class thread_pool {
 public:
  /// Create a pool that runs jobs on `num_threads` workers total (the
  /// calling thread counts as one of them, so `num_threads - 1` threads are
  /// spawned).
  explicit thread_pool(int num_threads);
  ~thread_pool();
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  int size() const { return num_threads_; }

  /// Run fn(worker_index) on workers 0 .. participants - 1 (all of them by
  /// default; the count is clamped to [1, size()]) and wait for
  /// completion. The other workers do not run it. With one participant fn(0)
  /// runs on the caller and the pool is not touched. If any worker throws,
  /// the first exception is rethrown on the caller after all participants
  /// finish. Not reentrant.
  void run_all(const std::function<void(int)>& fn,
               int participants = std::numeric_limits<int>::max());

  /// Pool sized to conf().num_threads. Rebuilt if the configured thread
  /// count changes between calls (tests sweep thread counts).
  static thread_pool& global();

 private:
  void worker_loop(int idx);
  /// Record a worker exception; first one wins. Lock-held core shared by
  /// the caller (worker 0) and spawned workers.
  void record_error_locked(std::exception_ptr e) REQUIRES(job_mtx_);

  int num_threads_;
  std::vector<std::thread> threads_;

  mutex job_mtx_ LOCK_RANK(thread_pool);
  cond_var cv_start_;
  cond_var cv_done_;
  const std::function<void(int)>* job_ GUARDED_BY(job_mtx_) = nullptr;
  std::uint64_t job_seq_ GUARDED_BY(job_mtx_) = 0;
  /// Workers with an index below this run the current job.
  int participants_ GUARDED_BY(job_mtx_) = 0;
  int remaining_ GUARDED_BY(job_mtx_) = 0;
  bool stop_ GUARDED_BY(job_mtx_) = false;
  std::exception_ptr first_error_ GUARDED_BY(job_mtx_);
};

}  // namespace flashr
