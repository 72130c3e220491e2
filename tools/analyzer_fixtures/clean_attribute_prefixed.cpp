// Clean fixture for tools/analyze_flashr.py --self-test: an
// attribute-prefixed signal-safe function that calls std::log1p, next to
// an engine free function that is also named log1p and takes a mutex. The
// std:: call is the standard library and must not resolve to the engine
// function, and the attribute must not hand the signal-safe contract to
// any other definition. Must produce zero findings.
#include <cmath>

#include "common/thread_safety.h"

namespace fixture {

using flashr::mutex;
using flashr::mutex_lock;

mutex log_fix_mtx LOCK_RANK(buffer_pool);
double log_fix_total = 0.0;

double log1p(double x) {
  mutex_lock lock(log_fix_mtx);
  log_fix_total += x;
  return log_fix_total;
}

FLASHR_SIGNAL_SAFE
__attribute__((noinline))
double log1p_in_handler(double x) {
  return std::log1p(x);
}

}  // namespace fixture
