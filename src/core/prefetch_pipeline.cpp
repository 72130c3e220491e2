#include "core/prefetch_pipeline.h"

#include <utility>

#include "common/timer.h"
#include "io/async_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace flashr::exec {

namespace {
obs::histogram& occupancy_hist() {
  static obs::histogram& h = obs::metrics_registry::global().get_histogram(
      "prefetch.window_occupancy");
  return h;
}
}  // namespace

prefetch_pipeline::prefetch_pipeline(std::vector<const em_readable*> leaves,
                                     std::size_t num_parts, std::size_t depth,
                                     bool sequential)
    : leaves_(std::move(leaves)),
      num_parts_(num_parts),
      depth_(depth),
      sequential_(sequential),
      st_(std::make_shared<pf_state>()) {
  // Prime the window: the first `depth` partition reads overlap with
  // whatever setup the caller still has to do before workers start popping.
  mutex_lock lock(st_->win_mtx);
  refill(*st_);
}

prefetch_pipeline::~prefetch_pipeline() {
  cancel();
  settle();  // also drains window-held buffers back to the pool
}

bool prefetch_pipeline::refill(pf_state& s) {
  const std::size_t capacity = depth_ != 0 ? depth_ : s.poppers;
  bool issued = false;
  while (!s.cancelled && s.next_part < num_parts_ &&
         s.window.size() < capacity) {
    issued = true;
    const std::size_t part = s.next_part++;
    auto fl = std::make_shared<pf_inflight>();
    fl->part = part;
    fl->remaining = leaves_.size();
    for (const em_readable* leaf : leaves_)
      fl->bufs.emplace(leaf, buffer_pool::global().get(leaf->geom().part_bytes(
                                 part, leaf->type())));
    s.window.push_back(fl);
    if (leaves_.empty()) continue;  // nothing to read; claimable at once
    OBS_INSTANT("prefetch.issue", part);
    s.outstanding_reads += leaves_.size();
    s.st.reads_issued += leaves_.size();
    // Submitting under the pipeline lock is safe: the I/O service takes its
    // own mutex only briefly to enqueue, and completion callbacks run with
    // no I/O-service lock held, so there is no lock-order cycle.
    auto st = st_;
    for (const em_readable* leaf : leaves_) {
      leaf->read_part_notify(part, fl->bufs.at(leaf).data(),
                             [st, fl](std::exception_ptr err) {
                               on_leaf_read_complete(st, fl, std::move(err));
                             });
    }
  }
  return issued;
}

void prefetch_pipeline::on_leaf_read_complete(
    const std::shared_ptr<pf_state>& st, const std::shared_ptr<pf_inflight>& fl,
    std::exception_ptr err) {
  st->last_completion_ns.store(now_ns(), std::memory_order_relaxed);
  mutex_lock cb_lock(st->win_mtx);
  if (err && !fl->error) fl->error = err;
  if (--fl->remaining == 0 && st->cancelled) {
    // Last leaf of a cancelled partition: no read can touch these buffers
    // any more. Release them under the lock, BEFORE the outstanding-reads
    // decrement below can unblock settle(), so the pass's pool audit never
    // observes them as leaked.
    fl->bufs.clear();
  }
  --st->outstanding_reads;
  st->cv.notify_all();
}

bool prefetch_pipeline::pop(slot& out) {
  async_io& io = async_io::global();
  // Write back-pressure: claim no new work while more writes wait in the I/O
  // FIFO than the window holds partitions; run the oldest requests first.
  // When the I/O threads fall behind (a slow disk, or a loaded host that
  // starves them of CPU), write-behind then stays near the window size
  // instead of pinning pool buffers up to the write budget.
  while (io.queued_writes() > depth_ && io.help_one()) {
  }
  pf_state& s = *st_;
  mutex_lock lock(s.win_mtx);
  ++s.poppers;
  // One help attempt per wake-up: with nothing to claim, run the I/O FIFO's
  // oldest request here instead of sleeping while the I/O threads work
  // through it, and keep helping while that finds work; an empty FIFO sends
  // the worker to wait, so it never spins.
  bool may_help = true;
  for (;;) {
    if (s.cancelled) {
      --s.poppers;
      throw pipeline_cancelled{};
    }
    // Claimable = all leaf reads landed. Sequential mode only ever claims
    // the head, preserving strictly increasing dispatch order for cum
    // carry chains; completion-order mode claims the first finished slot.
    std::shared_ptr<pf_inflight> claimed;
    if (!s.window.empty()) {
      if (sequential_) {
        if (s.window.front()->remaining == 0) {
          claimed = s.window.front();
          s.window.pop_front();
        }
      } else {
        for (auto it = s.window.begin(); it != s.window.end(); ++it) {
          if ((*it)->remaining == 0) {
            claimed = *it;
            s.window.erase(it);
            break;
          }
        }
      }
    }
    if (claimed) {
      --s.poppers;
      if (depth_ != 0) {  // depth 0 has no read-ahead window to sample
        s.st.occupancy_sum += s.window.size() + 1;  // window as of this claim
        if (obs::metrics_on()) occupancy_hist().record(s.window.size() + 1);
        OBS_COUNTER("prefetch.window", s.window.size() + 1);
      }
      ++s.st.pops;
      if (claimed->error) {
        // Release the buffers here, under the lock, not via `claimed`'s
        // destructor: a completion closure on the thread that ran its read
        // (an I/O thread, or a worker helping from pop()) may still hold
        // a shared_ptr to this entry, and the pass's pool audit must not
        // race its destruction. All reads landed (remaining == 0), so
        // nothing can still write into them.
        claimed->bufs.clear();
        std::rethrow_exception(claimed->error);
      }
      refill(s);
      out.part = claimed->part;
      out.bufs = std::move(claimed->bufs);
      return true;
    }
    if (s.window.empty() && s.next_part == num_parts_) {
      --s.poppers;
      return false;
    }
    // At depth 0 this worker's arrival raised the window's capacity, so it
    // issues the next partition's reads itself (claimable at once when the
    // DAG has no EM leaves); at depth > 0 the window is already full.
    if (refill(s)) continue;
    if (may_help) {
      // Help with the window lock dropped (the request's completion may
      // take it), then re-check before sleeping: a completion that landed
      // meanwhile notified nobody.
      lock.unlock();
      may_help = io.help_one();
      lock.lock();
      continue;
    }
    s.cv.wait(lock);
    may_help = true;
  }
}

void prefetch_pipeline::cancel() noexcept {
  pf_state& s = *st_;
  mutex_lock lock(s.win_mtx);
  s.cancelled = true;
  s.cv.notify_all();
}

void prefetch_pipeline::settle() noexcept {
  pf_state& s = *st_;
  mutex_lock lock(s.win_mtx);
  while (s.outstanding_reads != 0) s.cv.wait(lock);
  // Release window-held buffers here, on the settling thread, not in the
  // pf_state destructor: completion closures hold shared_ptrs to st_ that
  // the threads running the reads drop asynchronously after their final
  // notify, so st_ can briefly outlive this object — but the pass's pool
  // audit runs as soon as settle() returns. All reads have landed
  // (outstanding == 0), so nothing can still write into these buffers.
  for (auto& fl : s.window) fl->bufs.clear();
  s.window.clear();
}

prefetch_pipeline::stats prefetch_pipeline::pipeline_stats() const {
  mutex_lock lock(st_->win_mtx);
  return st_->st;
}

prefetch_pipeline::io_progress prefetch_pipeline::progress() const {
  io_progress p;
  p.last_completion_ns =
      st_->last_completion_ns.load(std::memory_order_relaxed);
  mutex_lock lock(st_->win_mtx);
  p.inflight_reads = st_->outstanding_reads;
  return p;
}

}  // namespace flashr::exec
