// Executor edge cases: degenerate shapes, deep DAGs, wide matrices, repeated
// materialization, mixed-geometry errors, and many-sink fan-out.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/config.h"
#include "common/error.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/fault.h"
#include "io/safs.h"
#include "mem/buffer_pool.h"
#include "obs/trace.h"

namespace flashr {
namespace {

class ExecEdgeTest : public ::testing::TestWithParam<exec_mode> {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    o.io_part_rows = 64;
    o.pcache_bytes = 1024;
    o.small_nrow_threshold = 16;
    o.mode = GetParam();
    init(o);
  }
};

TEST_P(ExecEdgeTest, MaterializeOfLeafIsNoop) {
  dense_matrix m = dense_matrix::rnorm(200, 2, 0, 1, 1);
  dense_matrix placed = conv_store(m, storage::in_mem);
  io_stats::global().reset();
  placed.materialize();  // already physical
  EXPECT_EQ(io_stats::global().read_ops.load(), 0u);
}

TEST_P(ExecEdgeTest, EmptyTargetListIsNoop) {
  EXPECT_NO_THROW(materialize_all({}));
  EXPECT_NO_THROW(materialize_all({dense_matrix{}}));
}

TEST_P(ExecEdgeTest, RepeatedMaterializationIsStable) {
  dense_matrix x = dense_matrix::rnorm(300, 2, 0, 1, 2) * 2.0;
  const double s1 = sum(x).scalar();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(sum(x).scalar(), s1);
}

TEST_P(ExecEdgeTest, DeepChainOfHundredOps) {
  dense_matrix x = dense_matrix::constant(500, 2, 1.0);
  dense_matrix y = x;
  for (int i = 0; i < 100; ++i) y = y + 1.0;
  EXPECT_EQ(sum(y).scalar(), 500 * 2 * 101.0);
}

TEST_P(ExecEdgeTest, WideMatrixForcesMinimumChunkRows) {
  // 600 columns with tiny pcache: chunk rows clamp at the floor of 16.
  dense_matrix x = dense_matrix::rnorm(128, 600, 0, 1, 3);
  const double s = sum(square(x)).scalar();
  EXPECT_NEAR(s, 128.0 * 600.0, 128 * 600 * 0.2);  // E[x^2]=1
}

TEST_P(ExecEdgeTest, MatrixSmallerThanOnePartition) {
  dense_matrix x = conv_store(dense_matrix::rnorm(20, 3, 5, 1, 4),
                              storage::ext_mem);
  EXPECT_EQ(x.resolved()->num_parts(), 1u);
  EXPECT_NEAR(col_means(x).to_smat()(0, 0), 5.0, 1.0);
}

TEST_P(ExecEdgeTest, MismatchedPartitionDimsRejected) {
  dense_matrix a = dense_matrix::rnorm(100, 2, 0, 1, 5);
  dense_matrix b = dense_matrix::rnorm(200, 2, 0, 1, 6);
  EXPECT_THROW(a + b, shape_error);
}

TEST_P(ExecEdgeTest, ManySinksOnePass) {
  dense_matrix x = conv_store(dense_matrix::rnorm(64 * 6, 4, 0, 1, 7),
                              storage::ext_mem);
  std::vector<dense_matrix> sinks;
  for (int i = 0; i < 12; ++i)
    sinks.push_back(sum(x * static_cast<double>(i + 1)));
  io_stats::global().reset();
  materialize_all(sinks);
  if (GetParam() != exec_mode::eager) {
    EXPECT_EQ(io_stats::global().read_ops.load(), 6u);
  }
  const double base = sinks[0].scalar();
  for (int i = 0; i < 12; ++i)
    EXPECT_NEAR(sinks[static_cast<std::size_t>(i)].scalar(),
                base * (i + 1), std::abs(base) * (i + 1) * 1e-12);
}

TEST_P(ExecEdgeTest, NestedSelectAndCbind) {
  dense_matrix x = dense_matrix::rnorm(200, 6, 0, 1, 8);
  smat h = x.to_smat();
  dense_matrix sel1 = select_cols(x, {5, 3, 1});
  dense_matrix sel2 = select_cols(sel1, {2, 0});  // -> cols {1, 5} of x
  smat got = sel2.to_smat();
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(got(i, 0), h(i, 1));
    EXPECT_EQ(got(i, 1), h(i, 5));
  }
  std::vector<dense_matrix> many(10, sel2);
  dense_matrix wide = cbind(many);
  EXPECT_EQ(wide.ncol(), 20u);
  EXPECT_NEAR(sum(wide).scalar(), 10 * sum(sel2).scalar(), 1e-8);
}

TEST_P(ExecEdgeTest, GeneratedDirectToSsd) {
  dense_matrix g = dense_matrix::runif(64 * 4, 2, 0, 1, 9);
  dense_matrix em = conv_store(g, storage::ext_mem);
  EXPECT_EQ(em.resolved()->kind(), store_kind::ext);
  EXPECT_EQ(em.to_smat().max_abs_diff(g.to_smat()), 0.0);
}

TEST_P(ExecEdgeTest, SinkOverSmallMatrix) {
  // Aggregating a small (single-partition, eager) matrix still works.
  dense_matrix s = dense_matrix::from_smat(smat::from_rows(2, 2, {1, 2, 3, 4}));
  EXPECT_EQ(sum(s).scalar(), 10.0);
  EXPECT_EQ(crossprod(s).to_smat()(0, 0), 10.0);  // 1*1 + 3*3
}

TEST_P(ExecEdgeTest, ChainAcrossMaterializationBoundary) {
  // Materialize mid-chain, keep composing: results must agree with the
  // fully lazy pipeline.
  dense_matrix x = dense_matrix::rnorm(400, 3, 0, 1, 10);
  dense_matrix lazy_total = sum(sqrt(abs(x * 2.0)) + 1.0);
  dense_matrix mid = x * 2.0;
  mid.materialize();
  dense_matrix staged_total = sum(sqrt(abs(mid)) + 1.0);
  EXPECT_NEAR(lazy_total.scalar(), staged_total.scalar(), 1e-9);
}

TEST_P(ExecEdgeTest, SingleColumnEverything) {
  dense_matrix v = conv_store(dense_matrix::seq(64 * 3 + 7), storage::in_mem);
  const double n = static_cast<double>(v.nrow());
  EXPECT_EQ(sum(v).scalar(), n * (n - 1) / 2);
  EXPECT_EQ(flashr::max(v).scalar(), n - 1);
  EXPECT_EQ(which_max_row(v).to_smat()(0, 0), 0.0);  // single column
  smat cs = cumsum_col(v).to_smat();
  EXPECT_EQ(cs(static_cast<std::size_t>(n) - 1, 0), n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ExecEdgeTest,
    ::testing::Values(exec_mode::eager, exec_mode::mem_fuse,
                      exec_mode::cache_fuse),
    [](const ::testing::TestParamInfo<exec_mode>& i) {
      std::string s = exec_mode_name(i.param);
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

/// Chrome-trace instant events ("ph":"i") named `name` in a trace flush.
std::size_t count_instants(const std::string& json, const std::string& name) {
  const std::string needle =
      "{\"name\":\"" + name + "\",\"cat\":\"flashr\",\"ph\":\"i\"";
  std::size_t n = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1))
    ++n;
  return n;
}

// §3.5.1's buffer recycling is worker-local: a worker keeps the chunk
// buffers its last consumers released and reuses them for the next chunk,
// so the shared pool hands each worker a bounded set of buffers however many
// Pcache chunks the pass runs. A sinks-only DAG over an in-memory leaf makes
// every pool.get of the pass a chunk buffer, plus one per sink result.
TEST(ExecTest, ChunkBuffersRecycleWithinWorker) {
  const std::size_t n = 64 * 1024, p = 8;
  // X, X %*% w, abs, negate, exp, log1p, sum, sigmoid, crossprod.
  const std::size_t dag_nodes = 9;
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = 4;
  o.obs_trace = true;
  init(o);
  const dense_matrix X =
      conv_store(dense_matrix::rnorm(n, p, 0, 1, 17), storage::in_mem);
  smat wm(p, 1);
  for (std::size_t j = 0; j < p; ++j)
    wm(j, 0) = 0.1 * static_cast<double>(j) - 0.3;
  const dense_matrix w = dense_matrix::from_smat(wm);

  struct fit {
    double loss = 0;
    smat grad;
    std::size_t gets = 0;
    std::size_t chunk_rows = 0;
  };
  auto run = [&](exec_mode mode, std::size_t pcache_bytes) {
    o.mode = mode;
    o.pcache_bytes = pcache_bytes;
    init(o);
    obs::trace_clear();
    fit f;
    f.chunk_rows = exec::pcache_rows(p, conf().io_part_rows);
    const std::size_t outstanding0 = buffer_pool::global().outstanding_count();
    {
      const dense_matrix xw = matmul(X, w);
      const dense_matrix loss = sum(log1p(exp(-abs(xw))));
      const dense_matrix grad = crossprod(X, sigmoid(xw));
      materialize_all({loss, grad});
      f.gets = count_instants(obs::trace_json(), "pool.get");
      EXPECT_EQ(obs::trace_dropped(), 0u);
      f.loss = loss.scalar();
      f.grad = grad.to_smat();
    }
    EXPECT_EQ(buffer_pool::global().outstanding_count(), outstanding0);
    return f;
  };

  const fit small = run(exec_mode::cache_fuse, 4 * 1024);
  const fit large = run(exec_mode::cache_fuse, 64 * 1024);
  const fit eager = run(exec_mode::eager, 64 * 1024);
  // 16x the chunks at 4 KiB, yet both stay within a per-worker bound.
  EXPECT_EQ(large.chunk_rows, 16 * small.chunk_rows);
  const std::size_t bound =
      static_cast<std::size_t>(o.num_threads) * (dag_nodes + 1);
  EXPECT_LE(small.gets, bound);
  EXPECT_LE(large.gets, bound);
  EXPECT_EQ(small.loss, large.loss);
  EXPECT_EQ(small.loss, eager.loss);
  ASSERT_EQ(small.grad.nrow(), p);
  for (std::size_t j = 0; j < p; ++j) {
    EXPECT_EQ(small.grad(j, 0), large.grad(j, 0));
    EXPECT_EQ(small.grad(j, 0), eager.grad(j, 0));
  }

  o.obs_trace = false;
  init(o);
}

// A pass runs on no more pool workers than it has partitions. A one-partition
// pass runs on the caller alone, so it leaves no span on any worker's
// flight-recorder track (a woken worker would record its empty
// prefetch.pop before joining).
TEST(ExecTest, OnePartitionPassLeavesWorkersAsleep) {
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = 4;
  o.obs_flight = true;
  init(o);
  const dense_matrix x = conv_store(
      dense_matrix::runif(o.small_nrow_threshold + 1, 2, 0.0, 1.0, 5),
      storage::in_mem);
  ASSERT_LT(x.nrow(), conf().io_part_rows);
  EXPECT_GT(sum(x).scalar(), 0.0);
  const std::uint64_t t0 = now_ns();
  EXPECT_GT(sum(x * 2.0).scalar(), 0.0);
  std::size_t caller_events = 0;
  for (const obs::flight_track& t : obs::flight_collect(t0)) {
    if (t.name.starts_with("worker-"))
      EXPECT_TRUE(t.events.empty())
          << t.name << " recorded " << t.events.size() << " events, the "
          << "first " << t.events.front().name;
    else
      caller_events += t.events.size();
  }
  EXPECT_GT(caller_events, 0u);  // the pass itself was recorded
}

// One materialize() runs at a time per process. A call made while another
// call's pass is in flight throws flashr::error and touches nothing: the
// running pass ends with exact results and the pool at its baseline, and
// the rejected call succeeds once the first has returned.
TEST(ExecTest, ConcurrentMaterializeIsRejected) {
  constexpr std::size_t n = 1000, p = 4;
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = 4;
  o.io_part_rows = 64;  // 16 partitions: both DAGs need the pool's workers
  o.small_nrow_threshold = 16;
  init(o);
  const dense_matrix x = conv_store(dense_matrix::runif(n, p, -1, 1, 23),
                                    storage::ext_mem);
  const dense_matrix z = dense_matrix::runif(n, p, -1, 1, 29);
  const smat hx = x.to_smat();
  const smat hz = z.to_smat();
  auto& pool = buffer_pool::global();
  const std::size_t count0 = pool.outstanding_count();
  const std::size_t bytes0 = pool.outstanding_bytes();

  {
    dense_matrix y = x * 2.0 + 1.0;
    dense_matrix w = z * 3.0;
    {
      // Every pread sleeps 20 ms, so the first pass takes at least
      // 16 x 20 ms / (2 I/O threads + 4 workers).
      fault_plan slow;
      slow.seed = 37;
      slow.latency_prob = 1.0;
      slow.latency_us = 20000;
      fault_scope scope(slow);
      std::thread first([&y] { y.materialize(storage::in_mem); });
      const std::uint64_t t0 = now_ns();
      while (exec::active_passes_json() == "[]" &&
             now_ns() - t0 < 5ull * 1000000000ull)
        std::this_thread::yield();
      EXPECT_NE(exec::active_passes_json(), "[]") << "first pass never ran";
      EXPECT_THROW(w.materialize(storage::in_mem), error);
      first.join();
    }
    const smat got = y.to_smat();
    for (std::size_t j = 0; j < p; ++j)
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got(i, j), hx(i, j) * 2.0 + 1.0) << i << "," << j;

    // The retry, with the first call returned, runs.
    const smat gw = w.to_smat();
    for (std::size_t j = 0; j < p; ++j)
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(gw(i, j), hz(i, j) * 3.0) << i << "," << j;
  }
  EXPECT_EQ(pool.outstanding_count(), count0);
  EXPECT_EQ(pool.outstanding_bytes(), bytes0);
}

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options o;
    o.em_dir = "/tmp/flashr_test_em";
    init(o);
  }
};

TEST_F(FailureTest, SafsCreateInMissingDirectoryThrows) {
  options bad;
  bad.em_dir = "/tmp/flashr_definitely_missing_dir/sub";
  // init mkdirs only one level; a nested missing path fails at file create.
  init(bad);
  EXPECT_THROW(safs_file::create("nope", 4096), io_error);
  options good;
  good.em_dir = "/tmp/flashr_test_em";
  init(good);
}

TEST_F(FailureTest, OutOfRangeAccessAborts) {
  // Access within the stripe-unit padding zero-fills; access beyond the
  // padded extent is a hard invariant violation.
  auto f = safs_file::create("small", 4096);
  std::vector<char> buf(8192);
  EXPECT_DEATH(f->read(conf().stripe_unit * 4, 8192, buf.data()),
               "out of range");
}

TEST_F(FailureTest, GatherRowsOutOfRange) {
  dense_matrix m = dense_matrix::rnorm(100, 2, 0, 1, 1);
  EXPECT_THROW(gather_rows(m, {1000}), shape_error);
}

}  // namespace
}  // namespace flashr
