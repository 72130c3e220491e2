// Runtime lock-rank checker tests (common/thread_safety.h,
// common/lock_rank.cpp): a seeded rank inversion and a recursive lock must
// abort with their diagnostics, the gate must keep the checker silent when
// invariants are off, and — the real bar — a full engine pass in every
// execution mode plus a concurrent metrics scrape must run
// clean with the checker enabled, proving the declared rank table matches
// the locks the engine actually takes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/config.h"
#include "common/thread_safety.h"
#include "core/dense_matrix.h"
#include "io/async_io.h"
#include "obs/metrics.h"

namespace flashr {
namespace {

TEST(LockRankDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex low LOCK_RANK(watchdog);
        mutex high LOCK_RANK(metrics_registry);
        mutex_lock outer(high);
        mutex_lock inner(low);  // 200 acquired under 700
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex a LOCK_RANK(buffer_pool);
        mutex b LOCK_RANK(buffer_pool);  // same rank: no order between them
        mutex_lock outer(a);
        mutex_lock inner(b);
      },
      "lock rank inversion");
}

TEST(LockRankDeathTest, RecursiveLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex m LOCK_RANK(watchdog);
        m.lock();
        m.lock();  // same mutex, same thread
      },
      "recursive lock");
}

// A worker helping the I/O service runs completions that take the window,
// join, budget and pool locks; holding any ranked lock while it helps risks
// a recursive acquisition or an inversion the analyzer cannot see through
// the completion's std::function, so help_one() refuses up front.
TEST(LockRankDeathTest, HelpingWithARankedLockHeldAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        invariant_scope on;
        mutex m LOCK_RANK(prefetch_window);
        mutex_lock held(m);
        (void)async_io::global().help_one();
      },
      "ranked lock held");
}

// A thread's rank record is released when its thread_locals are destroyed,
// but ranked locks can still be taken after that: the main thread runs static
// destructors (buffer_pool's trim) once its thread_locals are gone. Those
// locks must not land in the released slot, or the next thread to claim it
// inherits them, and its first lock reports an inversion it never made.
TEST(LockRankDeathTest, LocksAfterThreadLocalTeardownStayWithTheirThread) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        invariant_scope on;
        static mutex high LOCK_RANK(buffer_pool);
        static mutex low LOCK_RANK(watchdog);
        static std::promise<void> holding;
        static std::promise<void> release;
        std::shared_future<void> released = release.get_future().share();
        std::thread late([released] {
          // Constructed before this thread's rank record, so destroyed after
          // the record is released.
          struct late_locker {
            std::shared_future<void> released;
            ~late_locker() {
              mutex_lock lock(high);
              holding.set_value();
              released.wait();
            }
          };
          thread_local late_locker locker{released};
          (void)locker;
          mutex_lock lock(low);  // claims this thread's rank record
        });
        holding.get_future().wait();
        // The lowest free slot is the one `late` released, so this thread
        // claims it.
        std::thread fresh([] { mutex_lock lock(low); });
        fresh.join();
        release.set_value();
        late.join();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(LockRank, GateOffIsSilent) {
  // Without the invariant gate the checker must cost nothing and tolerate
  // any order (release builds run with it off).
  if (kInvariantBuild) GTEST_SKIP() << "validator forced on at compile time";
  mutex low LOCK_RANK(watchdog);
  mutex high LOCK_RANK(metrics_registry);
  {
    mutex_lock outer(high);
    mutex_lock inner(low);  // inverted, but unchecked
  }
  SUCCEED();
}

TEST(LockRank, IntrospectionTracksHeldRanks) {
  invariant_scope on;
  mutex low LOCK_RANK(watchdog);
  mutex high LOCK_RANK(metrics_registry);
  EXPECT_EQ(low.rank(), lock_rank::watchdog.value);
  EXPECT_EQ(high.rank(), lock_rank::metrics_registry.value);
  EXPECT_EQ(mutex{}.rank(), 0);  // unranked test scaffolding

  int held[16];
  EXPECT_EQ(detail::held_ranks(held, 16), 0);
  {
    mutex_lock outer(low);
    mutex_lock inner(high);
    ASSERT_EQ(detail::held_ranks(held, 16), 2);
    EXPECT_EQ(held[0], lock_rank::watchdog.value);
    EXPECT_EQ(held[1], lock_rank::metrics_registry.value);
  }
  EXPECT_EQ(detail::held_ranks(held, 16), 0);
}

TEST(LockRank, TryLockParticipates) {
  invariant_scope on;
  mutex m LOCK_RANK(watchdog);
  ASSERT_TRUE(m.try_lock());
  int held[16];
  EXPECT_EQ(detail::held_ranks(held, 16), 1);
  EXPECT_EQ(held[0], lock_rank::watchdog.value);
  m.unlock();
  EXPECT_EQ(detail::held_ranks(held, 16), 0);
}

// --- Whole-engine clean passes under the checker ---------------------------

class LockRankEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = 128;
    init(o);
  }

  static smat weights() {
    smat w(4, 3);
    for (std::size_t j = 0; j < 3; ++j)
      for (std::size_t i = 0; i < 4; ++i)
        w(i, j) = static_cast<double>(i + 1) * (j + 1);
    return w;
  }

  // One full pass: external-memory input so the prefetch pipeline, the
  // async-I/O queue, the buffer pool and the metrics layer all take their
  // locks while the rank checker watches.
  void run_pass() {
    dense_matrix x = dense_matrix::runif(600, 4, -1, 1, /*seed=*/11);
    x = conv_store(x, storage::ext_mem);
    smat got = matmul(x, dense_matrix::from_smat(weights())).to_smat();
    ASSERT_EQ(got.nrow(), 600u);
  }
};

TEST_F(LockRankEngineTest, CleanPassInEveryMode) {
  invariant_scope on;
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    mutable_conf().mode = m;
    run_pass();
  }
  mutable_conf().mode = exec_mode::cache_fuse;
}

TEST_F(LockRankEngineTest, ConcurrentGovernorAndScrape) {
  // The deepest rank chains in the tree meet here: the engine pass nests
  // pass locks -> prefetch window -> async queue -> pool -> metrics/trace,
  // while the scraper walks metrics -> the governor's and the pass-stats
  // probes. With the checker on, any undeclared edge aborts.
  invariant_scope on;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string prom = obs::metrics_registry::global().to_prometheus();
      ASSERT_FALSE(prom.empty());
    }
  });
  for (int i = 0; i < 3; ++i) run_pass();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
}

}  // namespace
}  // namespace flashr
