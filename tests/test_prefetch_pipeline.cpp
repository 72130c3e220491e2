// Prefetch-pipeline tests: completion-order dispatch correctness, forced
// sequential fallback for cumulative DAGs, clean cancellation with a window
// of reads in flight, the bounded write-behind budget, the per-pass stats
// surfaced by exec::last_pass_stats(), and workers running queued I/O
// requests while the I/O thread is busy: reads when they have nothing to
// claim, writes when too many wait.
//
// Latency injection (io/fault.h) is the lever that makes completion order
// genuinely scramble: a deterministic subset of preads sleep, so later
// partitions complete before earlier ones and the completion-order pop path
// is exercised for real, not just compiled.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/async_io.h"
#include "io/fault.h"
#include "io/safs.h"
#include "matrix/em_store.h"
#include "mem/buffer_pool.h"

namespace flashr {
namespace {

/// Overwrite every byte of a backing file with 0xFF (on-disk corruption).
void clobber_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> junk(static_cast<std::size_t>(n), '\xFF');
  if (!junk.empty()) {
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  }
  std::fclose(f);
}

class PrefetchPipelineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1000;
  static constexpr std::size_t kCols = 7;
  static constexpr std::size_t kPartRows = 64;
  static constexpr std::size_t kParts = (kN + kPartRows - 1) / kPartRows;

  void init_with(int prefetch_depth,
                 exec_mode mode = exec_mode::cache_fuse,
                 checksum_policy policy = checksum_policy::off) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;  // several workers pulling from one shared window
    o.io_part_rows = kPartRows;
    o.pcache_bytes = 2048;
    o.small_nrow_threshold = 16;
    o.prefetch_depth = prefetch_depth;
    o.mode = mode;
    o.io_checksum = policy;
    init(o);
    fault_injector::global().clear();
    io_stats::global().reset();
  }
  void TearDown() override { fault_injector::global().clear(); }

  dense_matrix make_em_input() const {
    smat h(kN, kCols);
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        h(i, j) = 0.5 * static_cast<double>(i) -
                  1.25 * static_cast<double>(j) + 3.0;
    return conv_store(dense_matrix::from_smat(h), storage::ext_mem);
  }

  /// Latency plan that delays a deterministic ~35% of preads by 1ms, so
  /// window completions arrive out of order while the data stays intact.
  static fault_plan scramble_plan(unsigned seed) {
    fault_plan p;
    p.seed = seed;
    p.latency_prob = 0.35;
    p.latency_us = 1000;
    return p;
  }
};

// ---------------------------------------------------------------------------
// Completion-order dispatch == sequential results, in all three exec modes
// ---------------------------------------------------------------------------

TEST_F(PrefetchPipelineTest, OutOfOrderCompletionMatchesSequentialResults) {
  const exec_mode modes[] = {exec_mode::eager, exec_mode::mem_fuse,
                             exec_mode::cache_fuse};
  const int depths[] = {0, 2, 8};
  for (exec_mode mode : modes) {
    // Reference run: strict sequential reads, no injection.
    init_with(/*prefetch_depth=*/0, mode);
    dense_matrix x = make_em_input();
    smat h = x.to_smat();
    smat want_mat = conv_store(x * 2.0 + 1.0, storage::ext_mem).to_smat();
    const double want_sum = agg(x * x - x, agg_id::sum).scalar();
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_NEAR(want_mat(i, j), h(i, j) * 2.0 + 1.0, 1e-12);

    for (int depth : depths) {
      mutable_conf().prefetch_depth = depth;
      fault_scope scope(scramble_plan(70 + static_cast<unsigned>(depth)));
      // Partition-aligned output: rows land at fixed offsets, so results
      // must be bit-for-bit regardless of completion order.
      smat got = conv_store(x * 2.0 + 1.0, storage::ext_mem).to_smat();
      for (std::size_t j = 0; j < kCols; ++j)
        for (std::size_t i = 0; i < kN; ++i)
          ASSERT_NEAR(got(i, j), want_mat(i, j), 1e-12)
              << "mode " << static_cast<int>(mode) << " depth " << depth;
      // Sink output: partition->thread assignment varies with completion
      // order, so per-thread partial sums merge in a different order —
      // identical up to f64 rounding only.
      const double got_sum = agg(x * x - x, agg_id::sum).scalar();
      EXPECT_NEAR(got_sum, want_sum, 1e-6)
          << "mode " << static_cast<int>(mode) << " depth " << depth;
    }
  }
}

// ---------------------------------------------------------------------------
// Cumulative DAGs fall back to strict sequential dispatch
// ---------------------------------------------------------------------------

TEST_F(PrefetchPipelineTest, CumulativeDagTakesSequentialPath) {
  init_with(/*prefetch_depth=*/8);
  dense_matrix x = make_em_input();
  smat h = x.to_smat();

  // Even with latency scrambling completions, a cum pass must hand out
  // partitions in order (carry chains) — and still produce exact prefixes.
  fault_scope scope(scramble_plan(75));
  smat got = cum_col(x, bop_id::add).to_smat();
  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_GE(ps.passes, 1u);
  EXPECT_EQ(ps.sequential_passes, ps.passes)
      << "a has_cum DAG must force every pass onto the sequential path";

  for (std::size_t j = 0; j < kCols; ++j) {
    double run = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      run += h(i, j);
      ASSERT_NEAR(got(i, j), run, 1e-9) << i << "," << j;
    }
  }

  // And a cum-free DAG over the same input must not be sequential.
  (void)agg(x, agg_id::sum).scalar();
  EXPECT_EQ(exec::last_pass_stats().sequential_passes, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation with a window of reads in flight: zero buffer leak
// ---------------------------------------------------------------------------

TEST_F(PrefetchPipelineTest, MidWindowReadFailureCancelsWithPoolAtBaseline) {
  // Depth 0 serves its partitions through the same window, one per waiting
  // worker, so it must unwind just as cleanly.
  for (int depth : {8, 0}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    init_with(depth);
    mutable_conf().io_max_retries = 0;  // first injected fault escalates
    dense_matrix x = make_em_input();

    auto& pool = buffer_pool::global();
    const std::size_t count0 = pool.outstanding_count();
    const std::size_t bytes0 = pool.outstanding_bytes();

    {
      // ~30% of preads fail hard and the rest are latency-scrambled, so the
      // failure lands mid-window: earlier reads have completed, later ones
      // are still in flight when the pass starts unwinding.
      fault_plan p;
      p.seed = 76;
      p.pread_prob = 0.30;
      p.latency_prob = 0.35;
      p.latency_us = 1000;
      fault_scope scope(p);
      try {
        conv_store(x + 1.0, storage::ext_mem).to_smat();
        FAIL() << "expected io_error";
      } catch (const io_error& e) {
        EXPECT_EQ(e.err(), EIO);
      }
    }
    // Window buffers (completed and in-flight), worker chunks, and staged
    // writes must all be back in the pool.
    EXPECT_EQ(pool.outstanding_count(), count0);
    EXPECT_EQ(pool.outstanding_bytes(), bytes0);

    // The engine stays usable: same DAG, clean run, exact results.
    mutable_conf().io_max_retries = 4;
    smat h = x.to_smat();
    smat got = conv_store(x + 1.0, storage::ext_mem).to_smat();
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_NEAR(got(i, j), h(i, j) + 1.0, 1e-12);
  }
}

TEST_F(PrefetchPipelineTest, ChecksumFailureInsideWindowedReadPropagates) {
  for (int depth : {8, 0}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    init_with(depth, exec_mode::cache_fuse, checksum_policy::verify);
    dense_matrix x = make_em_input();
    auto st = std::dynamic_pointer_cast<em_store>(x.store());
    ASSERT_NE(st, nullptr);
    ASSERT_TRUE(st->file()->has_checksums());
    for (int s = 0; s < st->file()->num_stripes(); ++s)
      clobber_file(st->file()->stripe_path(s));

    auto& pool = buffer_pool::global();
    const std::size_t count0 = pool.outstanding_count();
    const std::size_t bytes0 = pool.outstanding_bytes();
    // Verification runs inside the read's completion callback; the error
    // must surface from the worker's pop, cancel the pass, and leak
    // nothing.
    EXPECT_THROW(agg(x, agg_id::sum).scalar(), io_error);
    EXPECT_EQ(pool.outstanding_count(), count0);
    EXPECT_EQ(pool.outstanding_bytes(), bytes0);
    EXPECT_GE(io_stats::global().checksum_failures.load(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Bounded write-behind
// ---------------------------------------------------------------------------

TEST_F(PrefetchPipelineTest, WriteBehindBudgetIsRespected) {
  init_with(/*prefetch_depth=*/4);
  dense_matrix x = make_em_input();
  const std::size_t part_bytes = kPartRows * kCols * sizeof(double);
  // Budget of exactly one partition write: at most one write may be in
  // flight, so every overlapping submit from the 4 workers must stall.
  mutable_conf().max_inflight_write_bytes = part_bytes;

  smat h = x.to_smat();
  smat got;
  {
    // Delay every pwrite so in-flight writes linger and submitters collide
    // with the budget.
    fault_plan p;
    p.seed = 77;
    p.latency_prob = 1.0;
    p.latency_us = 500;
    fault_scope scope(p);
    got = conv_store(x * 3.0 - 1.0, storage::ext_mem).to_smat();
  }
  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_GT(ps.write_bytes, 0u);
  EXPECT_GT(ps.write_inflight_hwm, 0u);
  // The bound: never more than max(budget, one oversized write) in flight.
  EXPECT_LE(ps.write_inflight_hwm, std::max(
      conf().max_inflight_write_bytes, part_bytes));
  EXPECT_GT(ps.write_throttle_stalls, 0u);
  EXPECT_GT(ps.write_throttle_ns, 0u);

  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_NEAR(got(i, j), h(i, j) * 3.0 - 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Per-pass stats and the one-pass read invariant
// ---------------------------------------------------------------------------

TEST_F(PrefetchPipelineTest, PassStatsCountEveryPartitionReadOnce) {
  init_with(/*prefetch_depth=*/4);
  dense_matrix x = make_em_input();
  io_stats::global().reset();

  (void)agg(x, agg_id::sum).scalar();
  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_EQ(ps.passes, 1u);
  EXPECT_EQ(ps.reads_issued, kParts);  // one async read per leaf partition
  EXPECT_EQ(ps.read_bytes, kN * kCols * sizeof(double));
  EXPECT_EQ(ps.write_bytes, 0u);  // sink-only DAG writes nothing
  EXPECT_GT(ps.occupancy_x100, 0u);
  EXPECT_EQ(io_stats::global().read_ops.load(), kParts);

  // Depth 0 (synchronous baseline) keeps the same read accounting but has
  // no window to occupy.
  mutable_conf().prefetch_depth = 0;
  io_stats::global().reset();
  (void)agg(x, agg_id::sum).scalar();
  const exec::pass_stats ps0 = exec::last_pass_stats();
  EXPECT_EQ(ps0.reads_issued, kParts);
  EXPECT_EQ(ps0.occupancy_x100, 0u);
  EXPECT_EQ(io_stats::global().read_ops.load(), kParts);
}

// The automatic window is two partitions per I/O thread: one read in flight
// and one landed partition each, while workers idle in pop() run further
// reads themselves. With one I/O thread, every claim sees at most two
// windowed partitions, and the pass pins no more than that window, one
// claimed partition per worker and each worker's chunk state.
TEST_F(PrefetchPipelineTest, AutoWindowIsTwoPartitionsPerIoThread) {
  init_with(/*prefetch_depth=*/-1);
  mutable_conf().io_threads = 1;
  dense_matrix x = make_em_input();
  const double want = sum(x * 2.0).scalar();

  auto& pool = buffer_pool::global();
  const std::size_t bytes0 = pool.outstanding_bytes();
  pool.reset_peak();
  const double got = sum(x * 2.0).scalar();
  const std::size_t peak = pool.peak_bytes() - bytes0;
  const exec::pass_stats ps = exec::last_pass_stats();

  EXPECT_EQ(got, want);
  EXPECT_EQ(exec::default_prefetch_depth(), 2);
  EXPECT_EQ(ps.reads_issued, kParts);
  EXPECT_GT(ps.occupancy_x100, 0u);
  EXPECT_LE(ps.occupancy_x100, 200u);
  const std::size_t workers = static_cast<std::size_t>(conf().num_threads);
  const std::size_t leaf_part =
      buffer_pool::class_bytes(kPartRows * kCols * sizeof(double));
  const std::size_t chunk = buffer_pool::class_bytes(
      exec::pcache_rows(kCols, kPartRows) * kCols * sizeof(double));
  EXPECT_LE(peak, (2 + workers) * leaf_part + workers * chunk);
}

// ---------------------------------------------------------------------------
// Workers run queued I/O requests themselves
// ---------------------------------------------------------------------------

// With the only I/O thread parked inside a completion, a windowed pass still
// finishes: workers with nothing to claim run the queued partition reads
// themselves (async_io::help_one), each exactly once, and leak no buffer.
TEST_F(PrefetchPipelineTest, WorkersRunQueuedReadsWhileIoThreadParked) {
  init_with(/*prefetch_depth=*/4);
  mutable_conf().io_threads = 1;
  dense_matrix x = make_em_input();
  const double want = sum(x * 2.0).scalar();

  // Park io-0 inside a notify-read's completion. The request is queued
  // before any pass runs and io-0 has taken it once `parked` is set, so no
  // worker can run it in io-0's place.
  auto file = safs_file::create("park" + std::to_string(::getpid()), 4096);
  auto buf = std::make_shared<std::vector<char>>(4096);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  // Open the gate on every exit path, so a failed assertion cannot leave
  // io-0 parked for the rest of the suite.
  std::unique_ptr<std::promise<void>, void (*)(std::promise<void>*)> opener(
      &gate, [](std::promise<void>* g) { g->set_value(); });
  auto parked = std::make_shared<std::atomic<bool>>(false);
  async_io::global().submit_read_notify(
      file, 0, buf->size(), buf->data(),
      [buf, opened, parked](std::exception_ptr) {
        parked->store(true);
        opened.wait();
      });
  for (int i = 0; i < 10000 && !parked->load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(parked->load()) << "io-0 never ran the parking read";

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::uint64_t reads0 = io_stats::global().read_ops.load();
  auto pass = std::async(std::launch::async,
                         [&x] { return sum(x * 2.0).scalar(); });
  const bool finished =
      pass.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  opener.reset();  // io-0 resumes; a pass that waited on it finishes now
  const double got = pass.get();

  EXPECT_TRUE(finished) << "the pass waited on the parked I/O thread";
  EXPECT_EQ(got, want);
  EXPECT_EQ(io_stats::global().read_ops.load() - reads0, kParts);
  EXPECT_EQ(pool.outstanding_count(), count0);
}

// With the only I/O thread parked, a pass writing an EM output does not let
// its writes pile up to the write budget: a worker runs queued writes itself
// before it claims another partition while more than the window depth wait.
TEST_F(PrefetchPipelineTest, WriteBehindStaysNearTheWindowWhileIoThreadParked) {
  constexpr int kDepth = 4;
  constexpr std::size_t kOutParts = 64;
  constexpr std::size_t kRows = kOutParts * kPartRows;
  init_with(kDepth);
  mutable_conf().io_threads = 1;
  smat h(kRows, kCols);
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kRows; ++i)
      h(i, j) = static_cast<double>(i) - 2.0 * static_cast<double>(j);
  dense_matrix x = dense_matrix::from_smat(h);

  auto file = safs_file::create("park" + std::to_string(::getpid()), 4096);
  auto buf = std::make_shared<std::vector<char>>(4096);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::unique_ptr<std::promise<void>, void (*)(std::promise<void>*)> opener(
      &gate, [](std::promise<void>* g) { g->set_value(); });
  auto parked = std::make_shared<std::atomic<bool>>(false);
  async_io& io = async_io::global();
  io.submit_read_notify(file, 0, buf->size(), buf->data(),
                        [buf, opened, parked](std::exception_ptr) {
                          parked->store(true);
                          opened.wait();
                        });
  for (int i = 0; i < 10000 && !parked->load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(parked->load()) << "io-0 never ran the parking read";

  auto pass = std::async(std::launch::async, [&x] {
    return conv_store(x * 3.0 - 1.0, storage::ext_mem);
  });
  // Every partition's write was either run by a worker or is still queued
  // for io-0: the pass is left waiting in drain_writes.
  bool submitted = false;
  for (int i = 0; i < 10000 && !submitted; ++i) {
    submitted =
        io_stats::global().write_ops.load() + io.queued_writes() == kOutParts;
    if (!submitted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  opener.reset();
  const dense_matrix out = pass.get();
  const exec::pass_stats ps = exec::last_pass_stats();
  const smat got = out.to_smat();

  EXPECT_TRUE(submitted) << "the pass never submitted all of its writes";
  const std::size_t part_bytes = kPartRows * kCols * sizeof(double);
  EXPECT_EQ(ps.write_bytes, kOutParts * part_bytes);
  // Queued writes exceed the depth by at most one per worker (each submits
  // once after its last check), and each worker runs at most one more.
  const std::size_t bound =
      (kDepth + 2 * static_cast<std::size_t>(conf().num_threads)) * part_bytes;
  EXPECT_LE(ps.write_inflight_hwm, bound);
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kRows; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 3.0 - 1.0);
}

// ---------------------------------------------------------------------------
// Pcache chunking honours the DAG's element size
// ---------------------------------------------------------------------------

TEST_F(PrefetchPipelineTest, PcacheRowsScaleWithElementSize) {
  init_with(/*prefetch_depth=*/-1);  // pcache_bytes = 2048 from the fixture
  // 8 columns of f64: 64 B/row -> 32 rows; f32 halves the row footprint and
  // doubles the chunk; both are clamped to the partition.
  EXPECT_EQ(exec::pcache_rows(8, 4096, 8), 32u);
  EXPECT_EQ(exec::pcache_rows(8, 4096, 4), 64u);
  // The 2-arg form keeps the historical f64 assumption.
  EXPECT_EQ(exec::pcache_rows(8, 4096), 32u);
  // Clamps: never below 16 rows, never beyond the partition.
  EXPECT_EQ(exec::pcache_rows(4096, 4096, 8), 16u);
  EXPECT_EQ(exec::pcache_rows(1, 16, 1), 16u);
}

}  // namespace
}  // namespace flashr
