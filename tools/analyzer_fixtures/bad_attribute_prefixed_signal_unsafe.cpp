// Seeded violation for tools/analyze_flashr.py --self-test: a signal-safe
// function whose definition carries a GNU attribute between the
// FLASHR_SIGNAL_SAFE marker and its name. The analyzer must read past
// `__attribute__((noinline))`, register the definition as
// on_profile_signal (not as a function named `__attribute__`), and report
// the mutex that record_sample() takes under that name.
#include "common/thread_safety.h"

namespace fixture {

using flashr::mutex;
using flashr::mutex_lock;

mutex attr_fix_mtx LOCK_RANK(buffer_pool);
int attr_fix_samples = 0;

void record_sample() {
  mutex_lock lock(attr_fix_mtx);  // a mutex in a handler can deadlock
  ++attr_fix_samples;
}

FLASHR_SIGNAL_SAFE
__attribute__((noinline))
void on_profile_signal(int) {
  record_sample();
}

}  // namespace fixture
