// Resilience tests: seeded fault injection, retry/backoff, partition
// checksums, and clean pass cancellation.
//
// The fault injector (io/fault.h) evaluates a deterministic schedule, so
// every test here pins a seed and (usually) a finite fault budget; budgets
// make retry counts exact and keep multi-threaded outcomes reproducible.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "core/dense_matrix.h"
#include "io/async_io.h"
#include "io/fault.h"
#include "io/safs.h"
#include "matrix/em_store.h"
#include "mem/buffer_pool.h"

namespace flashr {
namespace {

std::vector<char> pattern(std::size_t n, unsigned seed) {
  std::vector<char> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<char>((i * 131 + seed) & 0xff);
  return v;
}

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

// ---------------------------------------------------------------------------
// SAFS layer: retry/backoff and the injection schedule itself
// ---------------------------------------------------------------------------

class SafsFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.stripes = 3;
    o.stripe_unit = 4096;
    init(o);
    fault_injector::global().clear();
    io_stats::global().reset();
  }
  void TearDown() override { fault_injector::global().clear(); }
};

TEST_F(SafsFaultTest, TransientReadFaultsAbsorbedExactly) {
  const std::size_t n = 8 * 1024;
  auto f = safs_file::create("flt_r", n);
  auto data = pattern(n, 3);
  f->write(0, n, data.data());

  fault_plan p;
  p.seed = 42;
  p.pread_prob = 1.0;  // every attempt faults until the budget is spent
  p.max_faults = 3;    // < conf().io_max_retries, so the read must succeed
  ASSERT_LT(p.max_faults, static_cast<std::size_t>(conf().io_max_retries) + 1);
  std::vector<char> back(n);
  {
    fault_scope scope(p);
    f->read(0, n, back.data());
  }
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  EXPECT_EQ(io_stats::global().retries.load(), 3u);
  EXPECT_EQ(io_stats::global().injected_faults.load(), 3u);
}

TEST_F(SafsFaultTest, TransientWriteFaultsAbsorbedExactly) {
  const std::size_t n = 8 * 1024;
  auto f = safs_file::create("flt_w", n);
  auto data = pattern(n, 4);

  fault_plan p;
  p.seed = 43;
  p.pwrite_prob = 1.0;
  p.max_faults = 2;
  {
    fault_scope scope(p);
    f->write(0, n, data.data());
  }
  std::vector<char> back(n);
  f->read(0, n, back.data());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  EXPECT_EQ(io_stats::global().retries.load(), 2u);
  EXPECT_EQ(io_stats::global().injected_faults.load(), 2u);
}

TEST_F(SafsFaultTest, PersistentReadFaultEscalatesToTypedError) {
  const std::size_t n = 4096;
  auto f = safs_file::create("flt_esc", n);
  auto data = pattern(n, 5);
  f->write(0, n, data.data());

  fault_plan p;
  p.seed = 44;
  p.pread_prob = 1.0;  // unlimited budget: the retry ladder must give up
  std::vector<char> back(n);
  fault_scope scope(p);
  try {
    f->read(0, n, back.data());
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_EQ(e.err(), EIO);
    EXPECT_FALSE(e.path().empty());
    EXPECT_EQ(e.len(), n);
    EXPECT_NE(std::string(e.what()).find("pread"), std::string::npos);
  }
  // Initial attempt + io_max_retries retries, all injected.
  EXPECT_EQ(io_stats::global().retries.load(),
            static_cast<std::size_t>(conf().io_max_retries));
}

TEST_F(SafsFaultTest, EintrRetriedBeyondTransientBudget) {
  const std::size_t n = 4096;
  auto f = safs_file::create("flt_eintr", n);
  auto data = pattern(n, 6);
  f->write(0, n, data.data());

  fault_plan p;
  p.seed = 45;
  p.pread_prob = 1.0;
  p.fault_errno = EINTR;
  p.max_faults = 10;  // far past io_max_retries: EINTR is always retried
  ASSERT_GT(p.max_faults, static_cast<std::size_t>(conf().io_max_retries));
  std::vector<char> back(n);
  {
    fault_scope scope(p);
    f->read(0, n, back.data());
  }
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  EXPECT_EQ(io_stats::global().retries.load(), 10u);
}

TEST_F(SafsFaultTest, ShortWriteIsCompletedByTheWriteLoop) {
  const std::size_t n = 4096;
  auto f = safs_file::create("flt_sw", n);
  auto data = pattern(n, 7);

  fault_plan p;
  p.seed = 46;
  p.short_prob = 1.0;  // first pwrite transfers only half its bytes
  p.max_faults = 1;
  {
    fault_scope scope(p);
    f->write(0, n, data.data());
  }
  std::vector<char> back(n);
  f->read(0, n, back.data());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  EXPECT_EQ(io_stats::global().injected_faults.load(), 1u);
}

TEST_F(SafsFaultTest, ShortReadSilentlyZeroFills) {
  // The hazard partition checksums exist for: a premature EOF is
  // indistinguishable from reading a hole, so the safs layer zero-fills
  // and reports success.
  const std::size_t n = 4096;
  auto f = safs_file::create("flt_sr", n);
  auto data = pattern(n, 8);
  f->write(0, n, data.data());

  fault_plan p;
  p.seed = 47;
  p.short_prob = 1.0;
  p.max_faults = 1;
  std::vector<char> back(n, 'x');
  {
    fault_scope scope(p);
    f->read(0, n, back.data());
  }
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(back[i], 0) << i;
  EXPECT_EQ(io_stats::global().injected_faults.load(), 1u);
}

TEST_F(SafsFaultTest, LatencyInjectionLeavesDataIntact) {
  const std::size_t n = 4096;
  auto f = safs_file::create("flt_lat", n);
  auto data = pattern(n, 9);
  f->write(0, n, data.data());

  fault_plan p;
  p.seed = 48;
  p.latency_prob = 1.0;  // one injection per syscall: two reads, two delays
  p.latency_us = 500;
  p.max_faults = 2;
  std::vector<char> back(n);
  {
    fault_scope scope(p);
    f->read(0, n, back.data());
    f->read(0, n, back.data());
  }
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  EXPECT_EQ(io_stats::global().injected_faults.load(), 2u);
  EXPECT_EQ(io_stats::global().retries.load(), 0u);
}

TEST_F(SafsFaultTest, FaultScopeRestoresPreviousPlan) {
  auto& inj = fault_injector::global();
  EXPECT_FALSE(inj.overridden());
  fault_plan outer;
  outer.seed = 1;
  outer.pread_prob = 0.5;
  {
    fault_scope a(outer);
    EXPECT_TRUE(inj.overridden());
    EXPECT_EQ(inj.snapshot().seed, 1u);
    fault_plan inner;
    inner.seed = 2;
    {
      fault_scope b(inner);
      EXPECT_EQ(inj.snapshot().seed, 2u);
    }
    EXPECT_TRUE(inj.overridden());
    EXPECT_EQ(inj.snapshot().seed, 1u);
    EXPECT_EQ(inj.snapshot().pread_prob, 0.5);
  }
  EXPECT_FALSE(inj.overridden());
}

// ---------------------------------------------------------------------------
// Partition checksums (em_store sidecar)
// ---------------------------------------------------------------------------

class EmChecksumTest : public ::testing::Test {
 protected:
  void init_with(checksum_policy policy) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.stripes = 3;
    o.stripe_unit = 4096;
    o.io_checksum = policy;
    init(o);
    fault_injector::global().clear();
    io_stats::global().reset();
  }
  void TearDown() override { fault_injector::global().clear(); }

  /// 2-partition f64 EM matrix with a deterministic byte pattern.
  em_store::ptr make_store() {
    auto st = em_store::create(128, 2, scalar_type::f64, 64);
    const std::size_t bytes = st->geom().part_bytes(0, st->type());
    auto data = pattern(bytes, 11);
    st->write_part(0, data.data());
    st->write_part(1, data.data());
    return st;
  }
};

TEST_F(EmChecksumTest, VerifyCatchesOnDiskCorruption) {
  init_with(checksum_policy::verify);
  auto st = make_store();
  ASSERT_TRUE(st->file()->has_checksums());
  for (int s = 0; s < st->file()->num_stripes(); ++s)
    clobber_file(st->file()->stripe_path(s));

  const std::size_t bytes = st->geom().part_bytes(0, st->type());
  std::vector<char> buf(bytes);
  try {
    st->read_part(0, buf.data());
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_EQ(e.err(), 0);  // corruption, not a syscall failure
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  EXPECT_GE(io_stats::global().checksum_failures.load(), 1u);
  EXPECT_EQ(io_stats::global().checksum_repairs.load(), 0u);
}

TEST_F(EmChecksumTest, RepairHealsInjectedPrematureEof) {
  init_with(checksum_policy::repair);
  auto st = make_store();
  const std::size_t bytes = st->geom().part_bytes(0, st->type());
  auto want = pattern(bytes, 11);

  fault_plan p;
  p.seed = 50;
  p.short_prob = 1.0;  // the partition read zero-fills...
  p.max_faults = 1;    // ...and the repair re-read runs clean
  std::vector<char> buf(bytes);
  {
    fault_scope scope(p);
    st->read_part(0, buf.data());
  }
  EXPECT_EQ(std::memcmp(want.data(), buf.data(), bytes), 0);
  EXPECT_EQ(io_stats::global().checksum_repairs.load(), 1u);
  EXPECT_EQ(io_stats::global().checksum_failures.load(), 0u);
}

TEST_F(EmChecksumTest, RepairEscalatesOnPersistentCorruption) {
  init_with(checksum_policy::repair);
  auto st = make_store();
  for (int s = 0; s < st->file()->num_stripes(); ++s)
    clobber_file(st->file()->stripe_path(s));

  const std::size_t bytes = st->geom().part_bytes(0, st->type());
  std::vector<char> buf(bytes);
  EXPECT_THROW(st->read_part(0, buf.data()), io_error);
  EXPECT_GE(io_stats::global().checksum_failures.load(), 1u);
}

TEST_F(EmChecksumTest, PartitionsWrittenWithPolicyOffAreNeverVerified) {
  init_with(checksum_policy::off);
  auto st = make_store();  // no CRC recorded for these partitions
  for (int s = 0; s < st->file()->num_stripes(); ++s)
    clobber_file(st->file()->stripe_path(s));

  const std::size_t bytes = st->geom().part_bytes(0, st->type());
  std::vector<char> buf(bytes);
  EXPECT_NO_THROW(st->read_part(0, buf.data()));
  // Flipping the policy on mid-life must not fail pre-policy partitions.
  mutable_conf().io_checksum = checksum_policy::verify;
  EXPECT_NO_THROW(st->read_part(0, buf.data()));
  EXPECT_EQ(io_stats::global().checksum_failures.load(), 0u);
}

// ---------------------------------------------------------------------------
// Engine under faults: absorption, cancellation, recovery
// ---------------------------------------------------------------------------

class EngineFaultTest : public ::testing::Test {
 protected:
  void init_with(checksum_policy policy) {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.num_threads = 4;          // cancellation must coordinate >= 4 workers
    o.io_part_rows = 64;        // many partitions at small n
    o.pcache_bytes = 2048;
    o.small_nrow_threshold = 16;
    o.prefetch_depth = 8;
    o.io_checksum = policy;
    init(o);
    fault_injector::global().clear();
    io_stats::global().reset();
  }
  void TearDown() override { fault_injector::global().clear(); }

  dense_matrix make_em_input(std::size_t n, std::size_t p) const {
    smat h(n, p);
    for (std::size_t j = 0; j < p; ++j)
      for (std::size_t i = 0; i < n; ++i)
        h(i, j) = 0.5 * static_cast<double>(i) -
                  1.25 * static_cast<double>(j) + 3.0;
    return conv_store(dense_matrix::from_smat(h), storage::ext_mem);
  }
};

TEST_F(EngineFaultTest, SeededTransientScheduleKeepsResultsExact) {
  init_with(checksum_policy::verify);
  const std::size_t n = 1000, cols = 7;
  dense_matrix x = make_em_input(n, cols);
  smat h = x.to_smat();

  fault_plan p;
  p.seed = 60;
  p.pread_prob = 0.10;   // well above the 1% acceptance floor
  p.pwrite_prob = 0.10;
  p.latency_prob = 0.05;
  p.latency_us = 50;     // keep the pass fast
  fault_scope scope(p);

  // One pass producing an SSD-resident output, then read it back; plus an
  // aggregation pass. All under the fault schedule.
  dense_matrix y = conv_store(x * 2.0 + 1.0, storage::ext_mem);
  smat got = y.to_smat();
  const double total = agg(x, agg_id::sum).scalar();

  double want_total = 0.0;
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got(i, j), h(i, j) * 2.0 + 1.0, 1e-12);
      want_total += h(i, j);
    }
  EXPECT_NEAR(total, want_total, 1e-6);

  // The schedule must actually have fired, and every fault been absorbed.
  EXPECT_GT(io_stats::global().injected_faults.load(), 0u);
  EXPECT_GT(io_stats::global().retries.load(), 0u);
  EXPECT_EQ(io_stats::global().checksum_failures.load(), 0u);
}

TEST_F(EngineFaultTest, PersistentFaultCancelsPassAndReleasesEveryBuffer) {
  init_with(checksum_policy::off);
  dense_matrix x = make_em_input(1000, 7);

  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();

  {
    fault_plan p;
    p.seed = 61;
    p.pread_prob = 1.0;  // unlimited: every partition read fails hard
    fault_scope scope(p);
    try {
      conv_store(x + 1.0, storage::ext_mem).to_smat();
      FAIL() << "expected io_error";
    } catch (const io_error& e) {
      EXPECT_EQ(e.err(), EIO);  // the original typed error, not a wrapper
      EXPECT_FALSE(e.path().empty());
    }
  }
  // Zero pool-buffer leak: worker chunks, prefetch buffers, staged outputs
  // and in-flight write buffers must all be back.
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);

  // The engine must be immediately reusable after the failed pass.
  smat h = x.to_smat();
  smat got = conv_store(x + 1.0, storage::ext_mem).to_smat();
  for (std::size_t j = 0; j < 7; ++j)
    for (std::size_t i = 0; i < 1000; ++i)
      EXPECT_NEAR(got(i, j), h(i, j) + 1.0, 1e-12);
}

TEST_F(EngineFaultTest, CumulativePassCancelsWithoutDeadlock) {
  // cum_col workers block on the previous partition's carry; a cancelled
  // pass must wake those waiters instead of deadlocking them.
  init_with(checksum_policy::off);
  const std::size_t n = 1000;
  dense_matrix x = make_em_input(n, 3);

  {
    fault_plan p;
    p.seed = 62;
    p.pread_prob = 1.0;
    fault_scope scope(p);
    EXPECT_THROW(cum_col(x, bop_id::add).to_smat(), io_error);
  }

  smat h = x.to_smat();
  smat got = cum_col(x, bop_id::add).to_smat();
  for (std::size_t j = 0; j < 3; ++j) {
    double run = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      run += h(i, j);
      ASSERT_NEAR(got(i, j), run, 1e-9) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// async_io service rebuild
// ---------------------------------------------------------------------------

TEST(AsyncRebuildTest, RebuildSurfacesDeferredWriteError) {
  // A deferred write error recorded by the old service must surface when
  // conf().io_threads changes, not vanish with the discarded object.
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.io_threads = 2;
  init(o);
  fault_injector::global().clear();
  io_stats::global().reset();

  {
    auto st = em_store::create(128, 2, scalar_type::f64, 64);
    const std::size_t bytes = st->geom().part_bytes(0, st->type());
    pool_buffer buf = buffer_pool::global().get(bytes);
    std::memset(buf.data(), 0x5a, bytes);
    {
      fault_plan p;
      p.seed = 63;
      p.pwrite_prob = 1.0;  // the whole retry ladder faults; error deferred
      fault_scope scope(p);
      st->write_part_async(0, std::move(buf));
      // Keep the plan installed until the I/O thread has fully processed
      // the write. pending_writes() does NOT consume the deferred error —
      // the drain after the rebuild must still see it.
      while (async_io::global().pending_writes() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    options o2 = o;
    o2.io_threads = 3;
    init(o2);
    EXPECT_THROW(async_io::global(), io_error);
    // The next call builds a fresh, working service.
    EXPECT_NO_THROW(async_io::global().drain_writes());
  }
  fault_injector::global().clear();
}

}  // namespace
}  // namespace flashr
