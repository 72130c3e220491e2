#include "io/async_io.h"

#include <cstdio>

#include "common/check.h"
#include "common/config.h"
#include "common/timer.h"
#include "io/fault.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace flashr {

namespace {
obs::histogram& read_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("io.read_us");
  return h;
}
obs::histogram& write_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("io.write_us");
  return h;
}
obs::histogram& throttle_hist() {
  static obs::histogram& h =
      obs::metrics_registry::global().get_histogram("io.write_throttle_us");
  return h;
}
}  // namespace

async_io::async_io(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    threads_.emplace_back([this, i] {
      char name[16];
      std::snprintf(name, sizeof(name), "io-%d", i);
      obs::set_thread_name(name);
      // Completion callbacks may trace; registering the ring here keeps
      // emit()'s once-per-thread slow path out of the nonblocking context.
      obs::ensure_thread_ring();
      io_loop();
    });
}

async_io::~async_io() {
  {
    mutex_lock lock(io_mtx_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void async_io::enqueue(request req) {
  {
    mutex_lock lock(io_mtx_);
    if (req.is_write) ++queued_writes_;
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
}

async_io::request async_io::pop_front() {
  request req = std::move(queue_.front());
  queue_.pop_front();
  if (req.is_write) --queued_writes_;
  return req;
}

std::size_t async_io::queued_writes() const {
  mutex_lock lock(io_mtx_);
  return queued_writes_;
}

void async_io::submit_read_notify(std::shared_ptr<const safs_file> file,
                                  std::size_t offset, std::size_t len,
                                  char* buf, completion_fn done) {
  request req;
  req.rfile = std::move(file);
  req.offset = offset;
  req.len = len;
  req.rbuf = buf;
  req.notify = std::move(done);
  enqueue(std::move(req));
}

void async_io::submit_write(std::shared_ptr<safs_file> file,
                            std::size_t offset, std::size_t len,
                            pool_buffer buf) {
  // Admit under the byte budget BEFORE queueing (blocks while over budget),
  // so the queue never holds unadmitted write bytes.
  admit_write(len);
  request req;
  req.wfile = std::move(file);
  req.offset = offset;
  req.len = len;
  req.wbuf = std::move(buf);
  req.is_write = true;
  enqueue(std::move(req));
}

void async_io::admit_write(std::size_t len) {
  const std::size_t budget = conf().max_inflight_write_bytes;
  mutex_lock lock(budget_mtx_);
  // Bounded write-behind: admit the write only when it fits the budget.
  // An oversized write is admitted once nothing else is in flight, so the
  // bound cannot deadlock; the effective high-water mark is then
  // max(budget, largest single write).
  if (budget != 0 && inflight_write_bytes_ != 0 &&
      inflight_write_bytes_ + len > budget) {
    // Time stalled on the write budget is I/O wait to the sampler.
    obs::probe throttle_probe({.name = "io.write_throttle",
                               .arg = len,
                               .acc = &throttle_stall_ns_,
                               .hist = throttle_hist,
                               .wait = obs::sample_state::io_wait});
    ++throttle_stalls_;
    while (inflight_write_bytes_ != 0 && inflight_write_bytes_ + len > budget)
      cv_write_budget_.wait(lock);
  }
  inflight_write_bytes_ += len;
  if (inflight_write_bytes_ > write_hwm_bytes_)
    write_hwm_bytes_ = inflight_write_bytes_;
  ++pending_writes_;
}

void async_io::complete_write(std::size_t len, std::exception_ptr err) {
  mutex_lock lock(budget_mtx_);
  if (err && !write_error_) write_error_ = std::move(err);
  inflight_write_bytes_ -= len;
  cv_write_budget_.notify_all();
  if (--pending_writes_ == 0) cv_drained_.notify_all();
}

void async_io::drain_writes() {
  mutex_lock lock(budget_mtx_);
  while (pending_writes_ != 0) cv_drained_.wait(lock);
  if (write_error_) {
    auto err = write_error_;
    write_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

int async_io::pending_writes() const {
  mutex_lock lock(budget_mtx_);
  return pending_writes_;
}

async_io::write_throttle_stats async_io::throttle_stats() const {
  mutex_lock lock(budget_mtx_);
  write_throttle_stats s;
  s.stalls = throttle_stalls_;
  s.stall_ns = throttle_stall_ns_;
  s.hwm_bytes = write_hwm_bytes_;
  s.inflight_bytes = inflight_write_bytes_;
  return s;
}

void async_io::reset_throttle_hwm() {
  mutex_lock lock(budget_mtx_);
  write_hwm_bytes_ = inflight_write_bytes_;
}

std::string async_io::debug_snapshot() const {
  // Sequential lock acquisition: read the queue under io_mtx_, release, then
  // read the budget under budget_mtx_ — never nested, so the snapshot cannot
  // invert async_queue (600) against io_write_budget (580).
  std::size_t depth = 0;
  bool stopping = false;
  {
    mutex_lock lock(io_mtx_);
    depth = queue_.size();
    stopping = stop_;
  }
  std::string s = "{\"name\": \"threads\"";
  s += ", \"io_threads\": " + std::to_string(threads_.size());
  s += ", \"queue_depth\": " + std::to_string(depth);
  s += ", \"stopping\": ";
  s += stopping ? "true" : "false";
  s += ", \"last_completion_ns\": " + std::to_string(last_completion_ns());
  mutex_lock lock(budget_mtx_);
  s += ", \"write_budget\": {\"pending_writes\": " +
       std::to_string(pending_writes_);
  s += ", \"inflight_write_bytes\": " + std::to_string(inflight_write_bytes_);
  s += ", \"write_hwm_bytes\": " + std::to_string(write_hwm_bytes_);
  s += ", \"throttle_stalls\": " + std::to_string(throttle_stalls_);
  s += ", \"throttle_stall_ns\": " + std::to_string(throttle_stall_ns_);
  s += ", \"write_error\": ";
  s += write_error_ ? "true" : "false";
  s += "}}";
  return s;
}

void async_io::io_loop() {
  for (;;) {
    request req;
    {
      mutex_lock lock(io_mtx_);
      {
        obs::sample_idle_scope idle;
        while (!stop_ && queue_.empty()) cv_.wait(lock);
      }
      if (queue_.empty()) return;  // stopping, and the FIFO is drained
      req = pop_front();
    }
    run(req);
  }
}

bool async_io::help_one() noexcept {
  // The completion below takes the window, join, budget and pool locks;
  // the analyzer cannot see through its std::function, so check here.
  FLASHR_DCHECK(detail::held_ranks(nullptr, 0) == 0,
                "async_io::help_one with a ranked lock held");
  // The helper does the I/O thread's work, not a wait: keep these samples
  // out of the io_wait state its caller (the pass worker's pop) entered.
  obs::probe cpu_probe({.wait = obs::sample_state::cpu});
  request req;
  {
    mutex_lock lock(io_mtx_);
    if (queue_.empty()) return false;
    req = pop_front();
  }
  run(req);
  return true;
}

void async_io::run(request& req) {
  io_throttle::global().acquire(req.len);
  auto& stats = io_stats::global();
  if (req.is_write) {
    std::exception_ptr err;
    {
      obs::probe write_probe(
          {.name = "io.write", .arg = req.len, .hist = write_hist});
      try {
        req.wfile->write(req.offset, req.len, req.wbuf.data());
        stats.write_ops.fetch_add(1, std::memory_order_relaxed);
        stats.write_bytes.fetch_add(req.len, std::memory_order_relaxed);
      } catch (...) {
        err = std::current_exception();
      }
    }
    req.wbuf.release();
    last_completion_ns_.store(now_ns(), std::memory_order_relaxed);
    complete_write(req.len, std::move(err));
    return;
  }
  std::exception_ptr err;
  {
    obs::probe read_probe(
        {.name = "io.read", .arg = req.len, .hist = read_hist});
    try {
      req.rfile->read(req.offset, req.len, req.rbuf);
      stats.read_ops.fetch_add(1, std::memory_order_relaxed);
      stats.read_bytes.fetch_add(req.len, std::memory_order_relaxed);
    } catch (...) {
      err = std::current_exception();
    }
  }
  // Stall injection sits between "data landed" and "completion
  // delivered": the read already happened (and was counted), but the
  // consumer does not hear about it until the injected delay elapses —
  // exactly the shape of an SSD whose completions stop arriving.
  fault_completion_stall();
  last_completion_ns_.store(now_ns(), std::memory_order_relaxed);
  // Hand the result over on this thread, then drop the closure immediately
  // so any buffers it references are not pinned past the notification. The
  // error moves too: this thread keeps no reference to release after the
  // waiter woke.
  completion_fn notify = std::move(req.notify);
  notify(std::move(err));
}

void read_join::complete(std::exception_ptr err) {
  {
    mutex_lock lock(join_mtx_);
    if (err && !error_) error_ = std::move(err);
    if (--remaining_ != 0) return;
    cv_landed_.notify_all();
    if (!done_) return;
    err = error_;
  }
  done_(err);
}

void read_join::wait() {
  std::exception_ptr err;
  {
    mutex_lock lock(join_mtx_);
    obs::probe wait_probe({.wait = obs::sample_state::io_wait});
    while (remaining_ != 0) cv_landed_.wait(lock);
    // Take the error out under the lock: the I/O thread that drops the last
    // reference to the join must find nothing to release while the caller
    // handles the exception (exception_ptr's count is invisible to TSan).
    err = std::move(error_);
  }
  if (err) std::rethrow_exception(err);
}

async_io& async_io::global() {
  static std::mutex mutex;
  static std::unique_ptr<async_io> service;
  static int built_threads = 0;
  std::lock_guard<std::mutex> lock(mutex);
  const int want = conf().io_threads;
  if (service && built_threads != want) {
    // Rebuild safely: drain pending writes on the old service and surface
    // any deferred write error instead of silently dropping it with the
    // object. If drain throws, the service is already detached — the next
    // call builds a fresh one.
    auto old = std::move(service);
    old->drain_writes();
  }
  if (!service) {
    service = std::make_unique<async_io>(want);
    built_threads = want;
  }
  return *service;
}

}  // namespace flashr
