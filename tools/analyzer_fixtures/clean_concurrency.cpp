// Clean fixture for tools/analyze_flashr.py --self-test: exercises every
// rule's machinery without breaking any rule. Nested locks acquired in
// strictly increasing rank order, a nonblocking callback that only touches
// a nonblocking_safe lock and calls another verified nonblocking function,
// and a pool_buffer bound to a named RAII local. Must produce zero
// findings.
#include "common/thread_safety.h"
#include "mem/buffer_pool.h"

namespace fixture {

using flashr::mutex;
using flashr::mutex_lock;

struct ordered_pair {
  mutex low_fix_mtx LOCK_RANK(watchdog);
  mutex high_fix_mtx LOCK_RANK(metrics_registry);
  mutex ring_fix_mtx LOCK_RANK(prefetch_window);  // nonblocking_safe
  unsigned tail = 0;

  void nested_in_order();
  void bump_tail() FLASHR_NONBLOCKING;
  void on_ring_ready() FLASHR_NONBLOCKING;
};

void ordered_pair::nested_in_order() {
  mutex_lock outer(low_fix_mtx);    // 200
  mutex_lock inner(high_fix_mtx);   // 700: strictly increasing
}

void ordered_pair::bump_tail() { ++tail; }

void ordered_pair::on_ring_ready() {
  mutex_lock lock(ring_fix_mtx);  // nonblocking_safe rank is fine here
  bump_tail();                    // verified nonblocking callee is fine
}

int use_pool_correctly() {
  flashr::pool_buffer buf = flashr::buffer_pool::global().get(1024);
  buf.data()[0] = 1;
  return static_cast<int>(buf.size());
}  // buf returns to the pool here, on every path

}  // namespace fixture
