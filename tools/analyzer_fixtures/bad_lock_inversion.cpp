// Seeded violation for tools/analyze_flashr.py --self-test: a lock-rank
// inversion that only a cross-function analysis can see. with_outer() holds
// a metrics_registry-ranked (700) mutex and calls lock_inner(), which
// acquires a watchdog-ranked (200) mutex — ranks must strictly increase, so
// the analyzer must report [lock-rank] with the two-frame call chain.
#include "common/thread_safety.h"

namespace fixture {

using flashr::mutex;
using flashr::mutex_lock;

struct inverted_pair {
  mutex outer_fix_mtx LOCK_RANK(metrics_registry);
  mutex inner_fix_mtx LOCK_RANK(watchdog);

  void with_outer();
  void lock_inner();
};

void inverted_pair::lock_inner() { mutex_lock lock(inner_fix_mtx); }

void inverted_pair::with_outer() {
  mutex_lock lock(outer_fix_mtx);
  lock_inner();  // 200 acquired under 700: inversion
}

}  // namespace fixture
