// Unit tests for the common substrate: types, RNG, buffer pool, scheduler,
// thread pool, alignment.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/align.h"
#include "common/config.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"
#include "mem/buffer_pool.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"

namespace flashr {
namespace {

TEST(Types, SizesAndNames) {
  EXPECT_EQ(type_size(scalar_type::f64), 8u);
  EXPECT_EQ(type_size(scalar_type::f32), 4u);
  EXPECT_EQ(type_size(scalar_type::i64), 8u);
  EXPECT_EQ(type_size(scalar_type::i32), 4u);
  EXPECT_STREQ(type_name(scalar_type::f64), "f64");
}

TEST(Types, PromotionLattice) {
  EXPECT_EQ(promote(scalar_type::i32, scalar_type::i64), scalar_type::i64);
  EXPECT_EQ(promote(scalar_type::i64, scalar_type::f32), scalar_type::f32);
  EXPECT_EQ(promote(scalar_type::f32, scalar_type::f64), scalar_type::f64);
  EXPECT_EQ(promote(scalar_type::f64, scalar_type::i32), scalar_type::f64);
}

TEST(Types, DispatchSelectsCorrectType) {
  std::size_t sz = dispatch_type(scalar_type::f32,
                                 [&]<typename T>() { return sizeof(T); });
  EXPECT_EQ(sz, 4u);
  sz = dispatch_type(scalar_type::i64, [&]<typename T>() { return sizeof(T); });
  EXPECT_EQ(sz, 8u);
}

TEST(Rng, CounterUniformIsDeterministic) {
  EXPECT_EQ(counter_uniform(42, 7), counter_uniform(42, 7));
  EXPECT_NE(counter_uniform(42, 7), counter_uniform(42, 8));
  EXPECT_NE(counter_uniform(42, 7), counter_uniform(43, 7));
}

TEST(Rng, UniformInRange) {
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double u = counter_uniform(1, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  double s = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += counter_uniform(9, static_cast<std::uint64_t>(i));
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  double s = 0, s2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = counter_normal(3, static_cast<std::uint64_t>(i));
    s += v;
    s2 += v * v;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, SequentialRngBelow) {
  rng64 r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Align, RoundUp) {
  EXPECT_EQ(round_up(1, 4096), 4096u);
  EXPECT_EQ(round_up(4096, 4096), 4096u);
  EXPECT_EQ(round_up(4097, 4096), 8192u);
}

TEST(Align, AlignedAllocAligned) {
  auto p = aligned_alloc_bytes(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.get()) % kBufferAlign, 0u);
}

TEST(BufferPool, RecyclesSameBuffer) {
  buffer_pool pool;
  char* first;
  {
    auto b = pool.get(1000);
    first = b.data();
    EXPECT_GE(b.size(), 1000u);
  }
  auto b2 = pool.get(900);  // same size class
  EXPECT_EQ(b2.data(), first);
}

TEST(BufferPool, TracksPeak) {
  buffer_pool pool;
  {
    auto a = pool.get(1 << 12);
    auto b = pool.get(1 << 12);
    EXPECT_GE(pool.outstanding_bytes(), std::size_t{2} << 12);
  }
  EXPECT_EQ(pool.outstanding_bytes(), 0u);
  EXPECT_GE(pool.peak_bytes(), std::size_t{2} << 12);
}

TEST(BufferPool, SizeClassRounding) {
  buffer_pool pool;
  auto a = pool.get(1);
  EXPECT_GE(a.size(), 512u);
  auto b = pool.get(513);
  EXPECT_GE(b.size(), 1024u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  buffer_pool pool;
  pool_buffer a = pool.get(512);
  char* p = a.data();
  pool_buffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
}

TEST(BufferPool, TrimFreesCached) {
  buffer_pool pool;
  { auto a = pool.get(2048); }
  EXPECT_EQ(pool.cached_count(), 1u);
  pool.trim();
  EXPECT_EQ(pool.cached_count(), 0u);
}

TEST(Scheduler, CoversAllPartitionsOnce) {
  part_scheduler sched(1000, 4, 8);
  std::vector<int> seen(1000, 0);
  std::size_t b, e;
  while (sched.fetch(b, e))
    for (std::size_t i = b; i < e; ++i) ++seen[i];
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Scheduler, DispatchesSequentially) {
  part_scheduler sched(100, 2, 4);
  std::size_t last_end = 0, b, e;
  while (sched.fetch(b, e)) {
    EXPECT_EQ(b, last_end);  // strictly increasing, contiguous
    last_end = e;
  }
  EXPECT_EQ(last_end, 100u);
}

TEST(Scheduler, ShrinksBatchesNearEnd) {
  part_scheduler sched(100, 4, 8);
  std::size_t b, e;
  std::vector<std::size_t> sizes;
  while (sched.fetch(b, e)) sizes.push_back(e - b);
  // The final dispatches must be single partitions.
  EXPECT_EQ(sizes.back(), 1u);
  // The first dispatch is a full batch.
  EXPECT_EQ(sizes.front(), 8u);
}

TEST(Scheduler, ParallelFetchIsRaceFree) {
  part_scheduler sched(10000, 8, 4);
  std::atomic<std::size_t> total{0};
  thread_pool pool(8);
  pool.run_all([&](int) {
    std::size_t b, e;
    while (sched.fetch(b, e)) total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 10000u);
}

TEST(StaticScheduler, PartitionsDisjointAndComplete) {
  static_scheduler sched(103, 4);
  std::set<std::size_t> seen;
  for (int t = 0; t < 4; ++t) {
    std::size_t cursor = 0, p;
    while (sched.fetch(t, cursor, p)) EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_EQ(seen.size(), 103u);
}

TEST(ThreadPool, RunsAllWorkers) {
  thread_pool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_all([&](int idx) { hits[static_cast<std::size_t>(idx)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  thread_pool pool(3);
  EXPECT_THROW(pool.run_all([&](int idx) {
                 if (idx == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool remains usable after an exception.
  std::atomic<int> n{0};
  pool.run_all([&](int) { ++n; });
  EXPECT_EQ(n.load(), 3);
}

// A job runs on its participants only. One participant is the caller
// alone; the rest of the pool skips the job and runs the next full one.
TEST(ThreadPool, RunsOnlyItsParticipants) {
  thread_pool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(4);
  std::atomic<bool> off_caller{false};
  pool.run_all(
      [&](int idx) {
        hits[static_cast<std::size_t>(idx)]++;
        if (std::this_thread::get_id() != caller) off_caller = true;
      },
      1);
  EXPECT_FALSE(off_caller.load());
  EXPECT_EQ(hits[0].load(), 1);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(hits[i].load(), 0);

  pool.run_all([&](int idx) { hits[static_cast<std::size_t>(idx)]++; }, 2);
  EXPECT_EQ(hits[0].load(), 2);
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[2].load(), 0);
  EXPECT_EQ(hits[3].load(), 0);

  EXPECT_THROW(pool.run_all(
                   [&](int idx) {
                     if (idx == 1) throw std::runtime_error("boom");
                   },
                   2),
               std::runtime_error);

  for (auto& h : hits) h = 0;
  pool.run_all([&](int idx) { hits[static_cast<std::size_t>(idx)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneRunsInline) {
  thread_pool pool(1);
  std::atomic<int> n{0};
  pool.run_all([&](int idx) {
    EXPECT_EQ(idx, 0);
    ++n;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(Config, ValidateRejectsBadValues) {
  options o;
  o.io_part_rows = 100;  // not a power of two
  EXPECT_THROW(o.validate(), error);
  o = options();
  o.num_threads = 0;
  EXPECT_THROW(o.validate(), error);
  o = options();
  o.stripes = 0;
  EXPECT_THROW(o.validate(), error);
}

}  // namespace
}  // namespace flashr
