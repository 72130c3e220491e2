// Clang thread-safety ("capability") annotations, annotated lock types, and
// the engine-wide lock-rank hierarchy.
//
// The engine's cross-thread protocols — the thread_pool job handshake, the
// buffer_pool free lists, the async_io request queue, cum-carry chains and
// pass-cancellation state in core/exec — are documented as capability
// annotations on the data they protect. Under clang, `-Wthread-safety`
// (cmake -DFLASHR_THREAD_SAFETY=ON) turns those contracts into compile
// errors: accessing a GUARDED_BY member without its mutex, or calling a
// REQUIRES function unlocked, fails the build. Under GCC every macro
// expands to nothing and the wrapper types behave exactly like their
// std counterparts.
//
// Conventions for annotated code:
//  * protect shared members with flashr::mutex (never a bare std::mutex
//    member — the analysis cannot see through an unannotated type; the
//    project linter enforces this in engine modules);
//  * take locks with flashr::mutex_lock (scoped) and write condition waits
//    as explicit `while (!pred) cv.wait(lock);` loops — predicate lambdas
//    are analyzed as separate functions and would lose the lock context;
//  * split a public locking entry point from its lock-held core by giving
//    the core a `*_locked()` name and a REQUIRES(mutex) annotation.
//
// Lock ranks. Every flashr::mutex in src/ declares a rank from the
// lock_rank table below via LOCK_RANK(name), and a thread may only acquire
// a mutex whose rank is STRICTLY GREATER than every rank it already holds.
// That single rule makes the lock graph acyclic, so no two threads can
// deadlock on flashr mutexes. The discipline is enforced twice:
//  * statically, by tools/analyze_flashr.py, which propagates held-lock
//    sets through the whole-program call graph and reports any acquisition
//    path that violates the order (with the full call chain); and
//  * dynamically, by a thread-local rank stack inside flashr::mutex that
//    aborts on inversion whenever invariants are enabled
//    (-DFLASHR_CHECK_INVARIANTS=ON, or flashr::invariant_scope in tests).
//
// Rank values are spaced so new locks can slot in without renumbering.
// Outer, coarse locks (taken first, held longest) get LOW ranks; leaf
// locks that may be taken from deep inside the engine get HIGH ranks.
// A rank marked nonblocking_safe covers a mutex whose every critical
// section is O(1) and alloc/IO-free, so taking it from an async-I/O
// completion context does not stall the I/O thread.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/check.h"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define FLASHR_TSA(x) __attribute__((x))
#endif
#endif
#ifndef FLASHR_TSA
#define FLASHR_TSA(x)  // no-op outside clang
#endif

/// Type-level: the annotated class is a capability (a mutex-like thing).
#define CAPABILITY(x) FLASHR_TSA(capability(x))
/// Type-level: RAII object that holds a capability for its lifetime.
#define SCOPED_CAPABILITY FLASHR_TSA(scoped_lockable)

/// Data members readable/writable only while holding the capability.
#define GUARDED_BY(x) FLASHR_TSA(guarded_by(x))
/// Pointer members whose *pointee* is protected by the capability.
#define PT_GUARDED_BY(x) FLASHR_TSA(pt_guarded_by(x))

/// Function-level: acquires/releases the capability (mutex methods, scoped
/// lock constructors/destructors).
#define ACQUIRE(...) FLASHR_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) FLASHR_TSA(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) FLASHR_TSA(try_acquire_capability(__VA_ARGS__))

/// Function-level: caller must hold / must NOT hold the capability.
#define REQUIRES(...) FLASHR_TSA(requires_capability(__VA_ARGS__))
#define EXCLUDES(...) FLASHR_TSA(locks_excluded(__VA_ARGS__))

/// Function-level: returns a reference to the named capability.
#define RETURN_CAPABILITY(x) FLASHR_TSA(lock_returned(x))
/// Function-level: asserts (at runtime) that the capability is held.
#define ASSERT_CAPABILITY(x) FLASHR_TSA(assert_capability(x))
/// Escape hatch for code the analysis cannot model. Use sparingly and say
/// why in a comment.
#define NO_THREAD_SAFETY_ANALYSIS FLASHR_TSA(no_thread_safety_analysis)

/// Generic clang `annotate` attribute carrier; tools/analyze_flashr.py keys
/// on these strings when walking clang JSON ASTs. Expands to nothing under
/// GCC (which only warns on unknown attributes, but noise is noise).
#if defined(__clang__)
#define FLASHR_ANNOTATE(s) __attribute__((annotate(s)))
#else
#define FLASHR_ANNOTATE(s)
#endif

/// Marks a function as a nonblocking context: async-I/O completion
/// callbacks, trace-ring record paths, watchdog poll bodies. The analyzer
/// verifies nothing reachable from it blocks: no lock of a mutex whose rank
/// is not nonblocking_safe, no condition-variable wait, no direct heap
/// allocation, no file I/O, no logging. Calling another FLASHR_NONBLOCKING
/// function is fine (it is verified on its own).
#define FLASHR_NONBLOCKING FLASHR_ANNOTATE("flashr_nonblocking")

/// Escape hatch for the nonblocking analysis: the annotated function is
/// treated as nonblocking without descending into it. Use only with a
/// comment explaining why its slow path cannot bite (e.g. once-per-thread
/// setup that nonblocking threads perform before entering the context).
#define FLASHR_BLOCKING_EXEMPT(why) \
  FLASHR_ANNOTATE("flashr_blocking_exempt:" why)

/// Marks a function as async-signal-safe: it may run inside the crash
/// handler (obs/crash_handler.cpp) after SIGSEGV/SIGBUS/SIGABRT/SIGFPE,
/// where the interrupted thread may hold ANY lock (including malloc's).
/// The analyzer verifies nothing reachable from it takes a mutex of any
/// rank (nonblocking_safe does not help — the crashed thread may hold that
/// very mutex), allocates, or calls blocking library I/O other than the
/// raw write/fsync/close family. Strictly stronger than FLASHR_NONBLOCKING.
#define FLASHR_SIGNAL_SAFE FLASHR_ANNOTATE("flashr_signal_safe")

namespace flashr {

namespace lock_rank {

/// A named rank in the global lock order. Passed by reference into
/// flashr::mutex so the runtime checker can report names, and parsed out of
/// this header by tools/analyze_flashr.py — this table is the single source
/// of truth for both enforcers.
struct rank_t {
  int value;                    ///< position in the global order
  const char* name;             ///< for diagnostics; matches the identifier
  bool nonblocking_safe;        ///< O(1), alloc/IO-free critical sections
};

// The engine lock-rank table, in acquisition order (low = outermost).
// Derived from the actual nesting edges in the tree; see DESIGN.md §12 for
// the per-edge justification. Keep sorted by value; values are unique.
inline constexpr rank_t watchdog{200, "watchdog", false};
inline constexpr rank_t pass_error{400, "pass_error", false};
inline constexpr rank_t pass_acc{410, "pass_acc", false};
inline constexpr rank_t cum_chain{420, "cum_chain", false};
inline constexpr rank_t pass_stats{430, "pass_stats", false};
inline constexpr rank_t profile{440, "profile", false};
inline constexpr rank_t virtual_result{460, "virtual_result", false};
inline constexpr rank_t thread_pool{470, "thread_pool", false};
inline constexpr rank_t prefetch_window{500, "prefetch_window", true};
inline constexpr rank_t io_join{550, "io_join", true};
// Write-behind budget accounting in the async I/O service (io/async_io.h).
// I/O threads release budget between requests, from a nonblocking context,
// so the critical sections are O(1) and alloc-free.
inline constexpr rank_t io_write_budget{580, "io_write_budget", true};
// Fault-injection plan snapshot (io/fault.h). A leaf in practice: the
// injector takes nothing under it.
inline constexpr rank_t fault_plan{590, "fault_plan", false};
inline constexpr rank_t async_queue{600, "async_queue", false};
inline constexpr rank_t buffer_pool{650, "buffer_pool", true};
inline constexpr rank_t metrics_registry{700, "metrics_registry", false};
inline constexpr rank_t trace_registry{750, "trace_registry", false};
// Profile-history store bookkeeping (obs/prof_store.cpp): armed directory
// and retention count. Held across record composition, which drains the
// sampler's aggregates — so it must rank BELOW sampler.
inline constexpr rank_t prof_store{760, "prof_store", false};
// Sampling-profiler collector state (obs/sampler.cpp): thread registry,
// folded aggregates, symbol cache. Acquired by thread attach/detach (may
// run under trace_registry from set_thread_name), the collector's drain
// tick, and export paths that hold nothing else; the SIGPROF handler
// itself never touches it (per-thread rings are lock-free SPSC).
inline constexpr rank_t sampler{770, "sampler", false};
// Innermost by necessity: conf() lazily runs config init, which may arm the
// incident monitor, so this lock is acquired under whatever the first
// conf() caller holds (pass accumulators, the prefetch window, the
// profiler). It guards only arm/disarm bookkeeping (bundle dir,
// monitor thread handle, trigger-pipe fd) for a few copies/stores and is
// never held across a ranked acquisition — the monitor thread composes
// bundles (governor health, I/O service snapshots, metrics, profile
// history) with NO lock held, from copies it took at arm time. Trigger
// requests themselves are lock-free (atomic slot + self-pipe) precisely
// because they fire from under the watchdog lock and from the
// crash handler.
inline constexpr rank_t incident{900, "incident", false};

}  // namespace lock_rank

/// Declares the rank of a flashr::mutex at its declaration site:
///   mutable mutex pool_mtx_ LOCK_RANK(buffer_pool);
/// The rank rides in the mutex's constructor argument, which both the
/// runtime checker and the analyzer's AST frontend read back; whether the
/// rank is nonblocking-safe is a property of the rank table entry, not of
/// the declaration.
#define LOCK_RANK(name) {::flashr::lock_rank::name}

struct raw_sink;  // common/raw_sink.h — buffered fd writer for crash dumps

namespace detail {
/// Runtime lock-rank checker (src/common/lock_rank.cpp). Thread-local rank
/// stack; check aborts via assert_fail when `r` is not strictly greater
/// than every held rank. All three are no-ops unless invariants are on
/// (note/forget keep the stack consistent across gate flips).
void rank_check(const void* m, const lock_rank::rank_t& r);
void rank_note(const void* m, const lock_rank::rank_t& r);
void rank_forget(const void* m) noexcept;
/// Test/introspection hook: ranks currently held by this thread, in
/// acquisition order, written into out[0..max); returns the held count.
int held_ranks(int* out, int max) noexcept;

/// One thread's held-rank stack as seen from another thread. Populated only
/// while invariants are enabled (the rank stack is maintained under the
/// same gate as the checker); `depth` may exceed the array when clamped.
struct thread_ranks {
  unsigned tid;        ///< OS thread id (gettid)
  int depth;           ///< held count (clamped to kMaxHeldRanks entries)
  int values[16];      ///< rank values, acquisition order
  const char* names[16];  ///< rank names from the table (static storage)
};

/// Snapshot every live thread's held-rank stack into out[0..max); returns
/// the number written. Lock-free (relaxed atomics over a fixed registry);
/// concurrent lock/unlock may yield a momentarily inconsistent stack for a
/// thread, which is acceptable for diagnostics.
int held_ranks_all_threads(thread_ranks* out, int max) noexcept;

/// Crash-path dump of the same registry as a RANK section (raw binary, see
/// obs/crash_handler.h for framing). Async-signal-safe.
void rank_dump_raw(raw_sink& sink) noexcept FLASHR_SIGNAL_SAFE;
}  // namespace detail

/// std::mutex with the capability attribute the analysis needs. Satisfies
/// Lockable, so std::lock_guard/std::unique_lock still work where the
/// analysis is not wanted (e.g. function-local statics).
///
/// A rank-constructed mutex participates in the runtime lock-rank check
/// whenever invariants are enabled; a default-constructed one (rank 0,
/// test scaffolding only — the analyzer flags unranked mutexes in src/)
/// skips it.
class CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  explicit mutex(const lock_rank::rank_t& r) : rank_(&r) {}
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() ACQUIRE() {
    // Check before blocking on the lock: a true inversion may deadlock
    // right here, and the abort must win that race.
    if (rank_ && invariants_enabled()) detail::rank_check(this, *rank_);
    m_.lock();
    if (rank_ && invariants_enabled()) detail::rank_note(this, *rank_);
  }
  void unlock() RELEASE() {
    if (rank_) detail::rank_forget(this);  // no-op if never noted
    m_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    if (rank_ && invariants_enabled()) {
      // A failed try_lock is always safe; a successful out-of-order one is
      // the same latent deadlock as lock() and aborts the same way.
      detail::rank_check(this, *rank_);
      detail::rank_note(this, *rank_);
    }
    return true;
  }

  /// Declared rank value (0 when unranked); for tests and diagnostics.
  int rank() const noexcept { return rank_ ? rank_->value : 0; }

 private:
  std::mutex m_;
  const lock_rank::rank_t* rank_ = nullptr;
};

/// Scoped lock over flashr::mutex. Exposes lock()/unlock() (BasicLockable)
/// so it can be handed to cond_var::wait, which releases and re-acquires.
class SCOPED_CAPABILITY mutex_lock {
 public:
  explicit mutex_lock(mutex& m) ACQUIRE(m) : m_(m) { m_.lock(); }
  ~mutex_lock() RELEASE() { m_.unlock(); }
  mutex_lock(const mutex_lock&) = delete;
  mutex_lock& operator=(const mutex_lock&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }

 private:
  mutex& m_;
};

/// Condition variable usable with flashr::mutex_lock. condition_variable_any
/// works with any BasicLockable; the tiny overhead over std::condition_variable
/// is irrelevant next to the job/IO granularity it is used at.
using cond_var = std::condition_variable_any;

}  // namespace flashr
