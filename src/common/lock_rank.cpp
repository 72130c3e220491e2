// Runtime half of the lock-rank hierarchy (see thread_safety.h for the
// table and the rule). Each thread keeps a small stack of the ranked
// flashr::mutexes it holds, in acquisition order; acquiring a mutex whose
// rank is not strictly greater than everything held is a latent deadlock
// and aborts immediately with both lock names.
//
// The per-thread stacks live in a fixed global registry of atomic records
// rather than plain thread_locals, so incident diagnostics can snapshot
// EVERY thread's held ranks (held_ranks_all_threads, stacks_json(), crash
// dumps) without any locking. A thread claims a registry slot on first use
// (CAS on the tid field) and releases it at thread exit; the owning thread
// is the only writer of its record, so its own reads/writes are plain
// relaxed atomics and the checker's fast path stays allocation- and
// lock-free (it runs inside mutex::lock, including from async-I/O
// completion contexts). Cross-thread snapshot reads are relaxed too: a
// concurrently mutating stack may read momentarily inconsistent, which is
// acceptable for diagnostics. Depth 16 is 4x the deepest chain the engine
// can form (watchdog -> prefetch window is 2).

#include "common/thread_safety.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "common/error.h"
#include "common/raw_sink.h"

namespace flashr::detail {

namespace {

constexpr int kMaxHeld = 16;
constexpr int kMaxThreads = 256;

static_assert(sizeof(thread_ranks::values) / sizeof(int) == kMaxHeld,
              "thread_ranks arrays must match the checker's stack depth");

struct rank_rec {
  std::atomic<unsigned> tid{0};  ///< OS thread id; 0 = free slot
  std::atomic<int> depth{0};
  std::atomic<const void*> m[kMaxHeld] = {};
  std::atomic<const lock_rank::rank_t*> rank[kMaxHeld] = {};
};

rank_rec g_recs[kMaxThreads];

unsigned os_tid() noexcept {
  return static_cast<unsigned>(::syscall(SYS_gettid));
}

// This thread's record and whether its registry slot was released. Both are
// trivially destructible, so they stay usable after the thread's other
// thread_locals are destroyed.
thread_local rank_rec* t_rec = nullptr;
thread_local bool t_released = false;

// Releases this thread's registry slot at thread exit. Ranked locks can
// still follow (later thread_local destructors; on the main thread, static
// destructors such as the buffer pool's trim). They must not land in the
// released slot, or the next thread to claim it would inherit them as held,
// so local_rec() gives them a private record from then on.
struct slot_release {
  bool armed = false;
  ~slot_release() {
    if (!armed) return;
    t_rec->depth.store(0, std::memory_order_relaxed);
    t_rec->tid.store(0, std::memory_order_release);  // slot becomes reusable
    t_rec = nullptr;
    t_released = true;
  }
};

thread_local slot_release t_release;

rank_rec& local_rec() noexcept {
  if (t_rec == nullptr) {
    const unsigned tid = os_tid();
    for (int i = 0; i < kMaxThreads && !t_released; ++i) {
      unsigned expect = 0;
      if (g_recs[i].tid.compare_exchange_strong(expect, tid,
                                                std::memory_order_acq_rel)) {
        t_rec = &g_recs[i];
        t_release.armed = true;
        return *t_rec;
      }
    }
    // Registry full (> kMaxThreads concurrent threads), or this thread's
    // slot was already released at thread exit: rank checking still works
    // through a private record; the thread is just invisible to
    // cross-thread snapshots.
    static thread_local rank_rec overflow;
    overflow.tid.store(tid, std::memory_order_relaxed);
    t_rec = &overflow;
  }
  return *t_rec;
}

}  // namespace

void rank_check(const void* m, const lock_rank::rank_t& r) {
  rank_rec& rec = local_rec();
  const int depth = rec.depth.load(std::memory_order_relaxed);
  for (int i = 0; i < depth; ++i) {
    const lock_rank::rank_t* held = rec.rank[i].load(std::memory_order_relaxed);
    if (rec.m[i].load(std::memory_order_relaxed) == m) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "recursive lock of '%s' (rank %d) on the same thread",
                    r.name, r.value);
      assert_fail("lock rank order", "thread_safety.h", 0, msg);
    }
    if (held->value >= r.value) {
      char msg[160];
      std::snprintf(
          msg, sizeof(msg),
          "lock rank inversion: acquiring '%s' (rank %d) while holding "
          "'%s' (rank %d); ranks must strictly increase",
          r.name, r.value, held->name, held->value);
      assert_fail("lock rank order", "thread_safety.h", 0, msg);
    }
  }
}

void rank_note(const void* m, const lock_rank::rank_t& r) {
  rank_rec& rec = local_rec();
  const int depth = rec.depth.load(std::memory_order_relaxed);
  if (depth >= kMaxHeld) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "held-lock stack overflow (%d ranked locks) at '%s'",
                  depth, r.name);
    assert_fail("lock rank depth", "thread_safety.h", 0, msg);
  }
  rec.m[depth].store(m, std::memory_order_relaxed);
  rec.rank[depth].store(&r, std::memory_order_relaxed);
  // Entries first, then the count: a relaxed cross-thread reader sees a
  // prefix that was valid at some point, never an uninitialized slot.
  rec.depth.store(depth + 1, std::memory_order_release);
}

void rank_forget(const void* m) noexcept {
  if (t_rec == nullptr) return;  // nothing ever noted on this thread
  rank_rec& rec = *t_rec;
  const int depth = rec.depth.load(std::memory_order_relaxed);
  // Last occurrence, scanned from the top: unlocks are LIFO in practice,
  // and a mutex locked while the gate was off is simply absent (no-op).
  for (int i = depth - 1; i >= 0; --i) {
    if (rec.m[i].load(std::memory_order_relaxed) != m) continue;
    for (int j = i; j + 1 < depth; ++j) {
      rec.m[j].store(rec.m[j + 1].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      rec.rank[j].store(rec.rank[j + 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    rec.depth.store(depth - 1, std::memory_order_release);
    return;
  }
}

int held_ranks(int* out, int max) noexcept {
  if (t_rec == nullptr) return 0;
  rank_rec& rec = *t_rec;
  const int depth = rec.depth.load(std::memory_order_relaxed);
  const int n = depth < max ? depth : max;
  for (int i = 0; i < n; ++i)
    out[i] = rec.rank[i].load(std::memory_order_relaxed)->value;
  return depth;
}

int held_ranks_all_threads(thread_ranks* out, int max) noexcept {
  int n = 0;
  for (int i = 0; i < kMaxThreads && n < max; ++i) {
    const unsigned tid = g_recs[i].tid.load(std::memory_order_acquire);
    if (tid == 0) continue;
    int depth = g_recs[i].depth.load(std::memory_order_relaxed);
    if (depth < 0) depth = 0;
    if (depth > kMaxHeld) depth = kMaxHeld;
    thread_ranks& tr = out[n];
    tr.tid = tid;
    tr.depth = 0;
    for (int j = 0; j < depth; ++j) {
      const lock_rank::rank_t* r =
          g_recs[i].rank[j].load(std::memory_order_relaxed);
      if (r == nullptr) break;  // torn snapshot of a growing stack
      tr.values[tr.depth] = r->value;
      tr.names[tr.depth] = r->name;
      ++tr.depth;
    }
    ++n;
  }
  return n;
}

FLASHR_SIGNAL_SAFE void rank_dump_raw(raw_sink& sink) noexcept {
  // Static snapshot buffer: the crash path must not grow the stack, and the
  // dump-once guard in crash_handler.cpp means a single writer.
  static thread_ranks snap[kMaxThreads];
  const int n = held_ranks_all_threads(snap, kMaxThreads);
  std::uint64_t len = 4;
  for (int i = 0; i < n; ++i)
    len += 8 + 4u * static_cast<unsigned>(snap[i].depth);
  sink_tag(sink, "RANK", len);
  sink_u32(sink, static_cast<std::uint32_t>(n));
  for (int i = 0; i < n; ++i) {
    sink_u32(sink, snap[i].tid);
    sink_u32(sink, static_cast<std::uint32_t>(snap[i].depth));
    for (int j = 0; j < snap[i].depth; ++j)
      sink_u32(sink, static_cast<std::uint32_t>(snap[i].values[j]));
  }
}

}  // namespace flashr::detail
