// Overload-resilience tests: the resource governor's budget check and
// degradation ladder, the pass watchdog's deadline and hung-I/O supervision,
// and the typed timeout/overload errors they surface.
//
// The deterministic `stall` fault site (io/fault.h) is what makes the
// hung-I/O tests reliable: completion delivery is delayed *after* the data
// lands, so the watchdog observes reads in flight with no completions —
// exactly the failure mode of an SSD whose completions stop arriving —
// without depending on wall-clock scheduling luck.
//
// Invariants under test:
//  * degradation never changes results (bit-identical elementwise output in
//    all three exec modes) and leaves the buffer pool at its baseline;
//  * a stalled or over-deadline pass fails with a typed timeout_error in
//    bounded time, with the buffer pool back at its baseline;
//  * every degradation step is observable: last_pass_stats(), the governor
//    metrics, explain_analyze(), and health().
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "core/governor.h"
#include "io/fault.h"
#include "mem/buffer_pool.h"
#include "obs/metrics.h"

namespace flashr {
namespace {

std::uint64_t metric(const char* name) {
  return obs::metrics_registry::global().value(name);
}

class GovernorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1000;
  static constexpr std::size_t kCols = 7;
  static constexpr std::size_t kPartRows = 64;
  static constexpr std::size_t kParts = (kN + kPartRows - 1) / kPartRows;
  /// Partition 0 of the EM input: what one window slot or worker claim pins.
  static constexpr std::size_t kLeafPartBytes =
      kPartRows * kCols * sizeof(double);

  void init_with(exec_mode mode = exec_mode::cache_fuse) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;
    o.io_part_rows = kPartRows;
    o.pcache_bytes = 2048;  // 32-row Pcache chunks for 7 f64 columns
    o.small_nrow_threshold = 16;
    o.prefetch_depth = 8;
    o.mode = mode;
    init(o);
    fault_injector::global().clear();
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
};

// ---------------------------------------------------------------------------
// Degradation ladder: tight budgets shrink the pass, never its results
// ---------------------------------------------------------------------------

// A memory budget below the pass's configured footprint walks the ladder
// (depth halving, then Pcache chunk shrinking, mode-specific rungs) until
// the pass fits — and the degraded pass produces bit-identical elementwise
// output in all three exec modes, leaving the pool at its baseline.
TEST_F(GovernorTest, MemoryBudgetDegradesWithoutChangingResults) {
  const exec_mode modes[] = {exec_mode::eager, exec_mode::mem_fuse,
                             exec_mode::cache_fuse};
  for (exec_mode mode : modes) {
    init_with(mode);
    dense_matrix x = make_em_input();
    smat h = x.to_smat();
    auto& pool = buffer_pool::global();
    const std::size_t count0 = pool.outstanding_count();
    const std::size_t bytes0 = pool.outstanding_bytes();

    // Tight enough to reject the depth-8 window (~57 KiB footprint for this
    // DAG), loose enough that a degraded configuration fits. Keep the
    // write-behind allowance to one partition so eager-mode EM
    // intermediates fit too.
    mutable_conf().mem_budget_bytes = 40000;
    mutable_conf().max_inflight_write_bytes = kLeafPartBytes;

    const std::uint64_t steps0 = metric("governor.degrade_steps");
    {
      dense_matrix y = x * 2.0 + 1.0;
      y.materialize(storage::in_mem);

      // Elementwise output must be bit-identical to the host computation.
      smat got = y.to_smat();
      for (std::size_t j = 0; j < kCols; ++j)
        for (std::size_t i = 0; i < kN; ++i)
          ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0)
              << "mode " << exec_mode_name(mode) << " at " << i << "," << j;
    }
    // With the result released, the degraded pass left the pool at its
    // baseline count and bytes.
    EXPECT_EQ(pool.outstanding_count(), count0) << exec_mode_name(mode);
    EXPECT_EQ(pool.outstanding_bytes(), bytes0) << exec_mode_name(mode);

    // The ladder ran and is visible: per-pass stats record each step in
    // order, and the cumulative governor metric advanced with them.
    const exec::pass_stats ps = exec::last_pass_stats();
    EXPECT_GE(ps.degrade_steps, 1u) << exec_mode_name(mode);
    EXPECT_NE(ps.degrade_path.find("depth:8->4"), std::string::npos)
        << exec_mode_name(mode) << ": " << ps.degrade_path;
    EXPECT_GE(metric("governor.degrade_steps"), steps0 + ps.degrade_steps);

    // Aggregation sanity against a host fold (the engine's own fold order
    // differs from this naive loop, so tolerance — exact schedule
    // invariance is pinned by AggregationIsScheduleAndChunkInvariant).
    double want = 0.0;
    for (std::size_t j = 0; j < kCols; ++j)
      for (std::size_t i = 0; i < kN; ++i) want += h(i, j);
    EXPECT_NEAR(agg(x, agg_id::sum).scalar(), want, 1e-6);

    // Degraded accounting is per-pass: health recovers once the pass ends.
    EXPECT_TRUE(exec::resource_governor::global().health().ok);
  }
}

// The "degradation never changes results" guarantee rests on sink partials
// being produced per partition and merged in ascending partition order, with
// chunk-size-invariant accumulate kernels underneath: every column sum and
// every crossprod element must be bit-identical across thread counts,
// prefetch depths, Pcache chunk sizes and governor budgets. The inputs carry
// fractional bits, so a fold that reassociates — pairs rows, or starts a
// fresh partial per chunk — rounds differently and fails here. Before the
// ordered merge, per-thread partials merged in thread order made the same
// binary produce different last bits run to run — this pins the invariant
// directly.
TEST_F(GovernorTest, AggregationIsScheduleAndChunkInvariant) {
  init_with();
  smat h(kN, kCols);
  rng64 rng(41);
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      h(i, j) = rng.next_normal() * static_cast<double>(j + 1);
  const dense_matrix x =
      conv_store(dense_matrix::from_smat(h), storage::ext_mem);
  auto same_bits = [](const smat& a, const smat& b) {
    return a.nrow() == b.nrow() && a.ncol() == b.ncol() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  // Reference: one worker, synchronous reads — no scheduling freedom.
  mutable_conf().num_threads = 1;
  mutable_conf().prefetch_depth = 0;
  auto run = [&] {
    dense_matrix y = (x * 1.0000001 + 0.5) * x - x / 3.0;
    return col_sums(y).to_smat();
  };
  const smat ref = run();
  const smat gref = crossprod(x).to_smat();

  const std::size_t chunks[] = {2048, 64 * 1024};
  const int depths[] = {8, 2, 0};
  for (const std::size_t pc : chunks) {
    for (const int d : depths) {
      mutable_conf().num_threads = 4;
      mutable_conf().pcache_bytes = pc;
      mutable_conf().prefetch_depth = d;
      ASSERT_TRUE(same_bits(run(), ref)) << "pcache " << pc << " depth " << d;
      ASSERT_TRUE(same_bits(crossprod(x).to_smat(), gref))
          << "pcache " << pc << " depth " << d;
    }
  }

  // And under a budget that walks the full ladder (depth + chunk rungs).
  mutable_conf().num_threads = 4;
  mutable_conf().prefetch_depth = 8;
  mutable_conf().pcache_bytes = 64 * 1024;
  mutable_conf().mem_budget_bytes = 40000;
  mutable_conf().max_inflight_write_bytes = kLeafPartBytes;
  ASSERT_TRUE(same_bits(run(), ref));
  EXPECT_GE(exec::last_pass_stats().degrade_steps, 1u);
}

// A pass that writes an EM output is charged the write-behind its pop()
// back-pressure lets it hold, not the whole 256 MiB write budget, so a
// 128 MiB memory budget admits it at full configuration. Its output has the
// bits of the unbudgeted run, and its pool peak stays within the footprint
// admission estimated (DESIGN §11.1).
TEST_F(GovernorTest, BudgetAdmitsAPassWithAnEmOutput) {
  constexpr std::size_t kRows = 400000, kWide = 16, kThreads = 4;
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = static_cast<int>(kThreads);
  init(o);  // default partitions, Pcache, I/O threads, depth and write budget
  const dense_matrix x = conv_store(
      dense_matrix::runif(kRows, kWide, -1.0, 1.0, 61), storage::ext_mem);
  const std::vector<double> want =
      conv_store(x * 2.0, storage::ext_mem).to_vector();

  constexpr std::size_t kBudget = std::size_t{128} << 20;
  mutable_conf().mem_budget_bytes = kBudget;
  auto& pool = buffer_pool::global();
  const std::size_t bytes0 = pool.outstanding_bytes();
  pool.reset_peak();
  const dense_matrix y = conv_store(x * 2.0, storage::ext_mem);
  const std::size_t peak = pool.peak_bytes() - bytes0;
  const exec::pass_stats ps = exec::last_pass_stats();
  mutable_conf().mem_budget_bytes = 0;

  EXPECT_EQ(ps.degrade_steps, 0u) << ps.degrade_path;
  const std::vector<double> got = y.to_vector();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);

  const std::size_t part = conf().io_part_rows * kWide * sizeof(double);
  const auto depth = static_cast<std::size_t>(exec::default_prefetch_depth());
  const auto io_threads = static_cast<std::size_t>(conf().io_threads);
  const std::size_t chunk =
      exec::pcache_rows(kWide, conf().io_part_rows) * kWide * sizeof(double);
  const std::size_t footprint =
      (depth + kThreads) * part                     // window + claims
      + kThreads * chunk                            // x * 2.0's chunk state
      + kThreads * part                             // staged output
      + (depth + 2 * kThreads + io_threads) * part; // write-behind
  EXPECT_LE(footprint, kBudget);
  EXPECT_LE(peak, footprint);
}

// A budget nothing can satisfy: the fused pass exhausts the ladder, falls
// back to node-at-a-time eager passes, and when even those cannot fit, the
// caller gets a typed overload_error — with nothing leaked and the engine
// healthy afterwards.
TEST_F(GovernorTest, ImpossibleBudgetSurfacesOverload) {
  init_with(exec_mode::cache_fuse);
  dense_matrix x = make_em_input();
  smat h = x.to_smat();

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  const std::uint64_t rejects0 = metric("governor.rejects");

  // Smaller than even one worker claim: no rung of the ladder can fit.
  mutable_conf().mem_budget_bytes = 1000;
  dense_matrix y = x * 2.0 + 1.0;
  try {
    y.materialize(storage::in_mem);
    FAIL() << "expected overload_error";
  } catch (const overload_error& e) {
    EXPECT_GT(e.requested(), e.budget());
    EXPECT_EQ(e.budget(), 1000u);
  }
  EXPECT_GE(metric("governor.rejects"), rejects0 + 1);

  // The full ladder is on record, including the mode fallback rung.
  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_NE(ps.degrade_path.find("mode:cache-fuse->eager"), std::string::npos)
      << ps.degrade_path;

  // Admission precedes execution: nothing ran, nothing leaked.
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
  EXPECT_TRUE(exec::resource_governor::global().health().ok);

  // Lifting the budget makes the identical DAG succeed, exactly.
  mutable_conf().mem_budget_bytes = 0;
  smat got = (x * 2.0 + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0);
}

// ---------------------------------------------------------------------------
// Watchdog: hung I/O and pass deadlines cancel through the zero-leak path
// ---------------------------------------------------------------------------

// Every completion delivery stalls 150ms while the stall bound is 50ms: the
// watchdog must trip ("reads in flight, no completion"), cancel the pass
// cooperatively, and surface a typed timeout_error in bounded time with the
// buffer pool back at baseline.
TEST_F(GovernorTest, StalledCompletionsTripTheWatchdog) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();
  mutable_conf().watchdog_stall_ms = 50;

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  const std::uint64_t trips0 = metric("governor.stall_trips");

  const std::uint64_t t0 = now_ns();
  {
    fault_plan p;
    p.seed = 90;
    p.stall_prob = 1.0;
    p.stall_us = 150000;
    fault_scope scope(p);
    dense_matrix y = x + 1.0;
    try {
      y.materialize(storage::in_mem);
      FAIL() << "expected timeout_error";
    } catch (const timeout_error& e) {
      EXPECT_EQ(e.limit_ms(), 50u);
      EXPECT_NE(std::string(e.what()).find("hung I/O"), std::string::npos);
      EXPECT_GE(e.elapsed_ns(), 50u * 1000000u);
    }
  }
  // Never hangs: the trip fires within ~one watchdog poll of the stall
  // bound, and teardown only waits out the already-injected delivery
  // stalls (the zero-leak settle). 10s is orders of magnitude of slack.
  EXPECT_LT(now_ns() - t0, 10ull * 1000000000ull);
  EXPECT_GE(metric("governor.stall_trips"), trips0 + 1);

  // Cooperative cancellation ran the normal teardown: pool at baseline.
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
  EXPECT_TRUE(exec::resource_governor::global().health().ok);

  // With completions flowing again the same DAG succeeds, exactly.
  smat got = (x + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(got(i, j), h(i, j) + 1.0);
}

// A per-call deadline on a healthy-but-slow pass (every pread delayed):
// the watchdog cancels at the deadline and the typed error carries it.
TEST_F(GovernorTest, DeadlineCancelsARunningPass) {
  init_with();
  dense_matrix x = make_em_input();
  smat h = x.to_smat();

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();
  const std::uint64_t trips0 = metric("governor.deadline_trips");

  const std::uint64_t t0 = now_ns();
  {
    fault_plan p;
    p.seed = 91;
    p.latency_prob = 1.0;
    // 16 partitions / (2 I/O threads + 4 workers): >= 53ms of reads
    p.latency_us = 20000;
    fault_scope scope(p);
    exec::materialize_opts opts;
    opts.deadline_ms = 20;
    dense_matrix y = x * 2.0 + 1.0;
    try {
      y.materialize(storage::in_mem, opts);
      FAIL() << "expected timeout_error";
    } catch (const timeout_error& e) {
      EXPECT_EQ(e.limit_ms(), 20u);
      EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
      EXPECT_GE(e.elapsed_ns(), 20u * 1000000u);
    }
  }
  EXPECT_LT(now_ns() - t0, 10ull * 1000000000ull);
  EXPECT_GE(metric("governor.deadline_trips"), trips0 + 1);
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);

  smat got = (x * 2.0 + 1.0).to_smat();
  for (std::size_t j = 0; j < kCols; ++j)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(got(i, j), h(i, j) * 2.0 + 1.0);
}

// Deadline firing on a pass that already walked the degradation ladder: the
// degraded retry is cancelled cleanly, the steps stay on record, and the
// engine is healthy afterwards.
TEST_F(GovernorTest, DeadlineDuringDegradedPassCancelsCleanly) {
  init_with();
  dense_matrix x = make_em_input();
  mutable_conf().mem_budget_bytes = 40000;  // forces depth degradation

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();

  fault_plan p;
  p.seed = 92;
  p.latency_prob = 1.0;
  p.latency_us = 5000;
  fault_scope scope(p);
  exec::materialize_opts opts;
  opts.deadline_ms = 25;
  dense_matrix y = x * 2.0 + 1.0;
  EXPECT_THROW(y.materialize(storage::in_mem, opts), timeout_error);

  const exec::pass_stats ps = exec::last_pass_stats();
  EXPECT_GE(ps.degrade_steps, 1u) << "the pass degraded before the deadline";
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
  EXPECT_TRUE(exec::resource_governor::global().health().ok);
}

// ---------------------------------------------------------------------------
// Observability: schedules, metrics, explain_analyze, health()
// ---------------------------------------------------------------------------

// The stall schedule is a pure function of (seed, site, per-site index):
// two identical runs inject the same number of completion stalls.
TEST_F(GovernorTest, StallScheduleIsDeterministic) {
  init_with();
  dense_matrix x = make_em_input();

  fault_plan p;
  p.seed = 93;
  p.stall_prob = 0.5;
  p.stall_us = 100;  // harmless delays: determinism is what's under test

  fault_injector::global().install(p);
  (void)agg(x, agg_id::sum).scalar();
  const std::size_t first = fault_injector::global().injected();

  fault_injector::global().install(p);  // re-install: reset the site counter
  (void)agg(x, agg_id::sum).scalar();
  const std::size_t second = fault_injector::global().injected();
  fault_injector::global().clear();

  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

// Degradation steps surface in explain_analyze(), and the governor's step
// counter and degraded-pass gauge in the Prometheus exposition.
TEST_F(GovernorTest, DegradationIsVisibleInExplainAnalyzeAndMetrics) {
  init_with();
  dense_matrix x = make_em_input();
  mutable_conf().mem_budget_bytes = 40000;

  const std::string analysis = (x * 4.0 + 2.0).explain_analyze();
  EXPECT_NE(analysis.find("\"degrade\": [\"depth:8->4\""), std::string::npos)
      << analysis.substr(0, 400);

  const std::string prom =
      obs::metrics_registry::global().to_prometheus();
  EXPECT_NE(prom.find("governor_degrade_steps"), std::string::npos);
  EXPECT_NE(prom.find("governor_degraded_passes"), std::string::npos);
}

// Degraded/tripped accounting: the begin/end pairs drive health().ok and
// its reason directly.
TEST_F(GovernorTest, HealthzReflectsDegradedAndTrippedAccounting) {
  init_with();
  auto& gov = exec::resource_governor::global();
  ASSERT_TRUE(gov.health().ok);

  gov.note_degraded_begin();
  exec::resource_governor::health_snapshot h = gov.health();
  EXPECT_FALSE(h.ok);
  EXPECT_NE(h.reason.find("degraded"), std::string::npos) << h.reason;
  EXPECT_NE(h.to_json().find("\"ok\": false"), std::string::npos);
  gov.note_degraded_end();

  gov.note_tripped_begin();
  h = gov.health();
  EXPECT_FALSE(h.ok);
  EXPECT_NE(h.reason.find("tripped"), std::string::npos) << h.reason;
  EXPECT_NE(h.to_json().find("tripped"), std::string::npos);
  gov.note_tripped_end();

  h = gov.health();
  EXPECT_TRUE(h.ok);
  EXPECT_TRUE(h.reason.empty()) << h.reason;
  EXPECT_NE(h.to_json().find("\"ok\": true"), std::string::npos);
}

}  // namespace
}  // namespace flashr
