#include "parallel/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common/config.h"
#include "common/error.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace flashr {

thread_pool::thread_pool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  threads_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool() {
  {
    mutex_lock lock(job_mtx_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void thread_pool::record_error_locked(std::exception_ptr e) {
  if (!first_error_) first_error_ = std::move(e);
}

void thread_pool::worker_loop(int idx) {
  {
    char name[24];
    std::snprintf(name, sizeof(name), "worker-%d", idx);
    obs::set_thread_name(name);
  }
  std::uint64_t seen_seq = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      mutex_lock lock(job_mtx_);
      {
        obs::sample_idle_scope idle;
        // Sleep through jobs of fewer participants than idx + 1.
        while (!stop_ && (job_seq_ == seen_seq || idx >= participants_))
          cv_start_.wait(lock);
      }
      if (stop_) return;
      seen_seq = job_seq_;
      job = job_;
    }
    try {
      (*job)(idx);
    } catch (...) {
      mutex_lock lock(job_mtx_);
      record_error_locked(std::current_exception());
    }
    {
      mutex_lock lock(job_mtx_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void thread_pool::run_all(const std::function<void(int)>& fn,
                          int participants) {
  const int n = std::clamp(participants, 1, num_threads_);
  if (n == 1) {
    fn(0);
    return;
  }
  {
    mutex_lock lock(job_mtx_);
    FLASHR_ASSERT(job_ == nullptr, "thread_pool::run_all is not reentrant");
    job_ = &fn;
    participants_ = n;
    remaining_ = n - 1;
    first_error_ = nullptr;
    ++job_seq_;
  }
  cv_start_.notify_all();
  // The caller is worker 0.
  try {
    fn(0);
  } catch (...) {
    mutex_lock lock(job_mtx_);
    record_error_locked(std::current_exception());
  }
  std::exception_ptr err;
  {
    mutex_lock lock(job_mtx_);
    // Joining the other participants is a wait, not work: the sampler
    // keys samples landing here lock_wait.
    obs::probe join_probe({.wait = obs::sample_state::lock_wait});
    while (remaining_ != 0) cv_done_.wait(lock);
    job_ = nullptr;
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

thread_pool& thread_pool::global() {
  static std::mutex mutex;
  static std::unique_ptr<thread_pool> pool;
  std::lock_guard<std::mutex> lock(mutex);
  const int want = conf().num_threads;
  if (!pool || pool->size() != want)
    pool = std::make_unique<thread_pool>(want);
  return *pool;
}

}  // namespace flashr
