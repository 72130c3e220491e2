// Observability-layer tests (src/obs/): trace ring semantics (overflow
// drop-oldest, disabled-mode silence, concurrent flush), Chrome-JSON output
// validity and span nesting under all three exec modes, histogram
// percentile math, registry probes vs the legacy pass_stats/io_stats
// counters they mirror, explain() goldens, structured logging, and the
// now-safe concurrent last_pass_stats() reader.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/safs.h"
#include "matrix/block_matrix.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/sem_spmm.h"

namespace flashr {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON validity checker (objects, arrays, strings, numbers,
// true/false/null). Not a parser — just enough to prove the emitters
// produce well-formed JSON without a third-party library.
// ---------------------------------------------------------------------------

struct json_checker {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n || std::strncmp(p, s, n) != 0)
      return false;
    p += n;
    return true;
  }
  bool string() {
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
      }
      ++p;
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p;
    if (p < end && (*p == '-' || *p == '+')) ++p;
    bool digits = false;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                       *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                       *p == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p))) digits = true;
      ++p;
    }
    return digits && p != start;
  }
  bool value() {
    ws();
    if (p >= end) return false;
    switch (*p) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    if (*p != '{') return false;
    ++p;
    ws();
    if (p < end && *p == '}') { ++p; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (p >= end || *p != ':') return false;
      ++p;
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') { ++p; continue; }
      break;
    }
    if (p >= end || *p != '}') return false;
    ++p;
    return true;
  }
  bool array() {
    if (*p != '[') return false;
    ++p;
    ws();
    if (p < end && *p == ']') { ++p; return true; }
    for (;;) {
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') { ++p; continue; }
      break;
    }
    if (p >= end || *p != ']') return false;
    ++p;
    return true;
  }
};

bool valid_json(const std::string& s) {
  json_checker c{s.data(), s.data() + s.size()};
  if (!c.value()) return false;
  c.ws();
  return c.p == c.end;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

options obs_options() {
  options o;
  o.em_dir = "/tmp/flashr_test_obs";
  o.num_threads = 4;
  o.io_part_rows = 1024;
  o.pcache_bytes = 4096;
  o.small_nrow_threshold = 16;
  o.obs_trace = true;
  o.obs_metrics = true;
  return o;
}

/// Per-tid span balance over the flushed trace: every "E" must close an
/// open "B" on the same track, and every track must end with depth zero.
void check_spans_balanced(const std::string& json) {
  std::unordered_map<int, int> depth;
  std::size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 6];
    const std::size_t tid_pos = json.find("\"tid\":", pos);
    ASSERT_NE(tid_pos, std::string::npos);
    const int tid = std::atoi(json.c_str() + tid_pos + 6);
    if (ph == 'B') {
      ++depth[tid];
    } else if (ph == 'E') {
      ASSERT_GT(depth[tid], 0) << "E with no open B on tid " << tid;
      --depth[tid];
    }
    ++pos;
  }
  for (const auto& [tid, d] : depth)
    EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
}

std::size_t count_events(const std::string& json, const std::string& name,
                         char ph) {
  std::string needle =
      "{\"name\":\"" + name + "\",\"cat\":\"flashr\",\"ph\":\"";
  needle += ph;
  needle += '"';
  std::size_t n = 0, pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    ++n;
    ++pos;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(ObsTrace, SpansNestUnderAllExecModes) {
  for (exec_mode m :
       {exec_mode::eager, exec_mode::mem_fuse, exec_mode::cache_fuse}) {
    options o = obs_options();
    o.mode = m;
    init(o);
    obs::trace_clear();

    dense_matrix X = conv_store(dense_matrix::runif(6000, 3, 0, 1, 7),
                                storage::ext_mem);
    const double s = sum(sqrt((X * 2.0 + 1.0))).scalar();
    EXPECT_GT(s, 0.0);

    obs::trace_summary tsum;
    const std::string json = obs::trace_json(&tsum);
    EXPECT_TRUE(valid_json(json)) << "mode " << exec_mode_name(m);
    EXPECT_GT(tsum.events, 0u);
    check_spans_balanced(json);
    EXPECT_GE(count_events(json, "materialize", 'B'), 1u);
    EXPECT_GE(count_events(json, "pass", 'B'), 1u);
    EXPECT_GE(count_events(json, "partition", 'B'), 1u);
    EXPECT_GE(count_events(json, "io.read", 'B'), 1u);
  }
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts) {
  options o = obs_options();
  o.obs_ring_events = 64;
  init(o);
  obs::trace_clear();

  for (int i = 0; i < 1000; ++i) OBS_INSTANT("overflow.tick", i);

  EXPECT_EQ(obs::trace_dropped(), 936u);
  obs::trace_summary tsum;
  const std::string json = obs::trace_json(&tsum);
  EXPECT_TRUE(valid_json(json));
  EXPECT_EQ(tsum.events, 64u);    // newest 64 kept
  EXPECT_EQ(tsum.dropped, 936u);  // oldest 936 overwritten
  // The survivors are the newest records: args 936..999.
  EXPECT_EQ(json.find("\"args\":{\"v\":935}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":936}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":999}"), std::string::npos);
}

TEST(ObsTrace, DisabledModeEmitsNothing) {
  options o = obs_options();
  o.obs_trace = false;
  o.obs_metrics = false;
  init(o);
  obs::trace_clear();

  dense_matrix X = conv_store(dense_matrix::runif(4000, 3, 0, 1, 11),
                              storage::ext_mem);
  (void)sum(X * 3.0).scalar();

  obs::trace_summary tsum;
  const std::string json = obs::trace_json(&tsum);
  EXPECT_TRUE(valid_json(json));
  EXPECT_EQ(tsum.events, 0u);
  EXPECT_EQ(tsum.threads, 0u);  // no thread ever registered a ring
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, ConcurrentWritersAndFlushAreClean) {
  options o = obs_options();
  o.obs_ring_events = 256;  // small, so writers wrap while the flusher runs
  init(o);
  obs::trace_clear();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::probe op({.name = "worker.op"});
        OBS_INSTANT("worker.tick", 1);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    obs::trace_summary tsum;
    const std::string json = obs::trace_json(&tsum);
    EXPECT_TRUE(valid_json(json));
    check_spans_balanced(json);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

TEST(ObsTrace, WriteTraceProducesLoadableFile) {
  options o = obs_options();
  init(o);
  obs::trace_clear();
  {
    obs::probe span({.name = "file.span", .arg = 42});
    OBS_INSTANT("file.tick", 7);
  }
  const std::string path = "/tmp/flashr_test_obs_trace.json";
  const obs::trace_summary tsum = obs::write_trace(path);
  EXPECT_EQ(tsum.events, 3u);  // B + i + E
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_TRUE(valid_json(content));
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

// A fresh I/O thread registers its trace ring at startup, possibly while
// the main thread has already moved on to re-init: the ring capacity it
// reads must not come from conf(), which init() rewrites without a lock
// conf() takes. A traced one-partition pass starts fresh I/O threads (the
// io_threads change rebuilds the service) and init() turns tracing off
// right after it; under tsan a capacity read from conf() is a data race.
TEST(ObsTrace, RingRegistrationDoesNotRaceInit) {
  options o = obs_options();
  o.io_threads = 2;
  init(o);
  const dense_matrix x =
      conv_store(dense_matrix::runif(512, 3, 0, 1, 13), storage::ext_mem);
  o.io_threads = 3;
  init(o);
  EXPECT_GT(sum(x).scalar(), 0.0);
  o.obs_trace = false;
  init(o);
  EXPECT_FALSE(obs::trace_on());
}

TEST(ObsTrace, ThreadNameControlCharactersAreEscaped) {
  // set_thread_name is public API: a name carrying control characters must
  // still flush as valid JSON (\n by name, other control bytes as \u00XX).
  init(obs_options());
  obs::trace_clear();
  std::thread named([] {
    obs::set_thread_name("w\n1\x01");
    OBS_INSTANT("named.tick", 1);
  });
  named.join();
  const std::string json = obs::trace_json();
  EXPECT_TRUE(valid_json(json));
  EXPECT_NE(json.find("\"args\":{\"name\":\"w\\n1\\u0001\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramPercentilesOnKnownDistributions) {
  obs::histogram h;
  // Uniform 1..1000, each exactly once.
  std::uint64_t total = 0;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.record(v);
    total += v;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), total);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(total) / 1000.0);
  // Power-of-two buckets bound the error: every percentile interpolates
  // inside its true value's bucket [2^(i-1), 2^i - 1].
  const double p50 = h.percentile(50);  // true value 500, bucket [256, 511]
  const double p95 = h.percentile(95);  // true value 950, bucket [512, 1023]
  const double p99 = h.percentile(99);  // true value 990, bucket [512, 1023]
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 511.0);
  EXPECT_GE(p95, 512.0);
  EXPECT_LE(p95, 1023.0);
  EXPECT_GE(p99, p95);  // same bucket, higher rank: monotone
  EXPECT_LE(p99, 1023.0);

  // Single-value distribution: everything lands in bucket of 100 = [64,127].
  obs::histogram one;
  for (int i = 0; i < 100; ++i) one.record(100);
  EXPECT_EQ(one.count(), 100u);
  EXPECT_DOUBLE_EQ(one.mean(), 100.0);
  EXPECT_GE(one.percentile(50), 64.0);
  EXPECT_LE(one.percentile(50), 127.0);
  EXPECT_GE(one.percentile(99), 64.0);
  EXPECT_LE(one.percentile(99), 127.0);

  // Empty histogram.
  obs::histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);

  // Zero values land in bucket 0, which pins percentiles to 0.
  obs::histogram zeros;
  zeros.record(0);
  zeros.record(0);
  EXPECT_DOUBLE_EQ(zeros.percentile(50), 0.0);
}

TEST(ObsMetrics, CountersGaugesAndRegistryJson) {
  auto& reg = obs::metrics_registry::global();
  reg.get_counter("test.counter").add(41);
  reg.get_counter("test.counter").add(1);
  reg.register_probe("test.gauge", [] { return std::uint64_t{7}; });
  reg.get_histogram("test.hist").record(10);

  bool found = false;
  EXPECT_EQ(reg.value("test.counter", &found), 42u);
  EXPECT_TRUE(found);
  EXPECT_EQ(reg.value("test.gauge", &found), 7u);
  EXPECT_TRUE(found);
  EXPECT_EQ(reg.value("test.absent", &found), 0u);
  EXPECT_FALSE(found);

  const std::string json = reg.to_json();
  EXPECT_TRUE(valid_json(json));
  EXPECT_NE(json.find("\"test.counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);

  reg.reset();
  EXPECT_EQ(reg.value("test.counter"), 0u);
}

TEST(ObsMetrics, ProbesMatchLegacyPassAndIoStats) {
  options o = obs_options();
  init(o);

  dense_matrix X = conv_store(dense_matrix::runif(8000, 4, 0, 1, 13),
                              storage::ext_mem);
  (void)sum(X * 2.0).scalar();

  auto& reg = obs::metrics_registry::global();
  const exec::pass_stats s = exec::last_pass_stats();
  EXPECT_GT(s.passes, 0u);
  EXPECT_GT(s.read_bytes, 0u);
  // The registry's pass.* probes ARE last_pass_stats — no second
  // accumulator that could drift.
  EXPECT_EQ(reg.value("pass.passes"), s.passes);
  EXPECT_EQ(reg.value("pass.read_bytes"), s.read_bytes);
  EXPECT_EQ(reg.value("pass.write_bytes"), s.write_bytes);
  EXPECT_EQ(reg.value("pass.reads_issued"), s.reads_issued);
  EXPECT_EQ(reg.value("pass.occupancy_x100"), s.occupancy_x100);

  auto& ios = io_stats::global();
  EXPECT_EQ(reg.value("io.read_ops"), ios.read_ops.load());
  EXPECT_EQ(reg.value("io.read_bytes"), ios.read_bytes.load());
  EXPECT_EQ(reg.value("io.write_bytes"), ios.write_bytes.load());

  // pass_stats::to_json round-trips as JSON and carries the same numbers.
  const std::string pj = s.to_json();
  EXPECT_TRUE(valid_json(pj));
  EXPECT_NE(pj.find("\"read_bytes\": " + std::to_string(s.read_bytes)),
            std::string::npos);

  // Extended obs histograms recorded (obs_metrics was on).
  EXPECT_GT(reg.get_histogram("io.read_us").count(), 0u);
}

TEST(ObsMetrics, ConcurrentLastPassStatsReaderIsSafe) {
  options o = obs_options();
  init(o);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&stop, &torn] {
    while (!stop.load(std::memory_order_relaxed)) {
      const exec::pass_stats s = exec::last_pass_stats();
      // Coherent snapshot: this workload's EM reads always go through the
      // async layer, so read bytes without issued reads would mean a torn
      // mix of old and new fields.
      if (s.read_bytes > 0 && s.reads_issued == 0)
        torn.fetch_add(1, std::memory_order_relaxed);
      (void)obs::metrics_registry::global().to_json();
    }
  });
  for (int i = 0; i < 5; ++i) {
    dense_matrix X = conv_store(
        dense_matrix::runif(6000, 3, 0, 1, 17 + i), storage::ext_mem);
    (void)sum(X * 1.5).scalar();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(ObsExplain, GoldenDag) {
  options o = obs_options();
  o.mode = exec_mode::cache_fuse;
  init(o);

  dense_matrix X = dense_matrix::runif(4096, 4, 0, 1, 5);
  dense_matrix d = sum(X * 2.0);

  const std::string got = d.explain();
  EXPECT_TRUE(valid_json(got));
  // pcache_rows(ncol=4, part_rows=1024, elem=8) with pcache_bytes=4096
  // gives bit_floor(4096 / 32) = 128 chunk rows.
  const std::string want = R"({
  "targets": [2],
  "exec": {"mode": "cache-fuse", "chunk_rows": 128, "sequential_dispatch": false, "groups": [[1, 2]]},
  "nodes": [
    {"id": 0, "store": "generated", "nrow": 4096, "ncol": 4, "type": "f64", "part_rows": 1024, "children": []},
    {"id": 1, "store": "virtual", "op": "mapply.scalar", "fn": "*", "nrow": 4096, "ncol": 4, "type": "f64", "part_rows": 1024, "children": [0]},
    {"id": 2, "store": "virtual", "op": "agg", "fn": "sum", "sink": true, "nrow": 1, "ncol": 1, "type": "f64", "part_rows": 1024, "children": [1]}
  ]
})";
  EXPECT_EQ(got, want);

  // Deterministic: same DAG, same output.
  EXPECT_EQ(d.explain(), got);

  // dot output names every node and edge.
  const std::string dot = d.explain_dot();
  EXPECT_NE(dot.find("digraph flashr_dag"), std::string::npos);
  EXPECT_NE(dot.find("mapply.scalar"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);

  // Eager mode plans one fusion group per pending node.
  mutable_conf().mode = exec_mode::eager;
  const std::string eager = d.explain();
  EXPECT_TRUE(valid_json(eager));
  EXPECT_NE(eager.find("\"groups\": [[1], [2]]"), std::string::npos);
  mutable_conf().mode = exec_mode::cache_fuse;

  // After materialization the DAG collapses to a physical leaf.
  const double v = d.scalar();
  EXPECT_GT(v, 0.0);
  const std::string after = d.explain();
  EXPECT_TRUE(valid_json(after));
  EXPECT_EQ(after.find("\"store\": \"virtual\""), std::string::npos);
}

// A block matrix's per-block virtual nodes share the wide generated leaf,
// so the explained plan is one DAG: leaf + a select/mapply pair per block,
// all in a single cache-fuse group.
TEST(ObsExplain, GoldenBlockMatrixDag) {
  options o = obs_options();
  o.mode = exec_mode::cache_fuse;
  init(o);

  dense_matrix wide = dense_matrix::runif(4096, 48, 0, 1, 9);
  block_matrix bm(wide);  // two blocks: 32 + 16 columns
  ASSERT_EQ(bm.num_blocks(), 2u);
  block_matrix scaled = bm * 2.0;

  const std::string got = scaled.explain();
  EXPECT_TRUE(valid_json(got));
  const std::string want = R"({
  "targets": [2, 4],
  "exec": {"mode": "cache-fuse", "chunk_rows": 16, "sequential_dispatch": false, "groups": [[1, 2, 3, 4]]},
  "nodes": [
    {"id": 0, "store": "generated", "nrow": 4096, "ncol": 48, "type": "f64", "part_rows": 1024, "children": []},
    {"id": 1, "store": "virtual", "op": "[,cols]", "ncols": 32, "nrow": 4096, "ncol": 32, "type": "f64", "part_rows": 1024, "children": [0]},
    {"id": 2, "store": "virtual", "op": "mapply.scalar", "fn": "*", "nrow": 4096, "ncol": 32, "type": "f64", "part_rows": 1024, "children": [1]},
    {"id": 3, "store": "virtual", "op": "[,cols]", "ncols": 16, "nrow": 4096, "ncol": 16, "type": "f64", "part_rows": 1024, "children": [0]},
    {"id": 4, "store": "virtual", "op": "mapply.scalar", "fn": "*", "nrow": 4096, "ncol": 16, "type": "f64", "part_rows": 1024, "children": [3]}
  ]
})";
  EXPECT_EQ(got, want);
  EXPECT_EQ(scaled.explain(), got) << "deterministic";

  const std::string dot = scaled.explain_dot();
  EXPECT_NE(dot.find("digraph flashr_dag"), std::string::npos);
  EXPECT_NE(dot.find("[,cols]"), std::string::npos);
  EXPECT_NE(dot.find("mapply.scalar"), std::string::npos);
}

// A dense DAG fed by a semi-external sparse product: em_csr::spmm streams
// the sparse matrix from SSDs into a host smat, which enters the dense DAG
// as the small side of an inner.prod.
TEST(ObsExplain, GoldenSparseInputDag) {
  options o = obs_options();
  o.mode = exec_mode::cache_fuse;
  init(o);

  sparse::csr_matrix A = sparse::csr_matrix::random_graph(64, 4.0, 13);
  auto em = sparse::em_csr::create(A, /*rows_per_block=*/16);
  smat D(64, 2);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      D(i, j) = static_cast<double>(i + j) / 64.0;
  const smat P = em->spmm(D);  // sparse-input operand, 64 x 2

  dense_matrix X = dense_matrix::runif(4096, 64, 0, 1, 17);
  dense_matrix d = sum(inner_prod(X, P, bop_id::mul, agg_id::sum));

  const std::string got = d.explain();
  EXPECT_TRUE(valid_json(got));
  const std::string want = R"({
  "targets": [2],
  "exec": {"mode": "cache-fuse", "chunk_rows": 16, "sequential_dispatch": false, "groups": [[1, 2]]},
  "nodes": [
    {"id": 0, "store": "generated", "nrow": 4096, "ncol": 64, "type": "f64", "part_rows": 1024, "children": []},
    {"id": 1, "store": "virtual", "op": "inner.prod", "f1": "*", "f2": "sum", "nrow": 4096, "ncol": 2, "type": "f64", "part_rows": 1024, "children": [0]},
    {"id": 2, "store": "virtual", "op": "agg", "fn": "sum", "sink": true, "nrow": 1, "ncol": 1, "type": "f64", "part_rows": 1024, "children": [1]}
  ]
})";
  EXPECT_EQ(got, want);

  const std::string dot = d.explain_dot();
  EXPECT_NE(dot.find("inner.prod"), std::string::npos);

  // The DAG computes what the in-memory reference computes.
  const smat Pref = A.spmm(D);
  double want_sum = 0;
  smat Xs = X.to_smat();
  for (std::size_t i = 0; i < Xs.nrow(); ++i)
    for (std::size_t j = 0; j < Pref.ncol(); ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < Xs.ncol(); ++k)
        acc += Xs(i, k) * Pref(k, j);
      want_sum += acc;
    }
  EXPECT_NEAR(d.scalar(), want_sum, std::abs(want_sum) * 1e-10);
}

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

TEST(ObsLog, SinkReceivesFormattedRecords) {
  std::vector<std::pair<log_level, std::string>> got;
  set_log_level(log_level::info);
  set_log_sink([&got](log_level lvl, const char* msg) {
    got.emplace_back(lvl, msg);
  });
  FLASHR_INFO("x=%d y=%s", 42, "ok");
  FLASHR_WARN("warned");
  FLASHR_DEBUG("dropped: level is info");  // filtered before the sink
  set_log_sink(nullptr);
  set_log_level(log_level::warn);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, log_level::info);
  EXPECT_EQ(got[0].second, "x=42 y=ok");
  EXPECT_EQ(got[1].first, log_level::warn);
  EXPECT_EQ(got[1].second, "warned");
}

TEST(ObsLog, JsonFormatEmitsOneValidObjectPerLine) {
  set_log_level(log_level::warn);
  set_log_format(log_format::json);
  ::testing::internal::CaptureStderr();
  FLASHR_WARN("quote \" backslash \\ newline \n done");
  const std::string err = ::testing::internal::GetCapturedStderr();
  set_log_format(log_format::text);

  ASSERT_FALSE(err.empty());
  ASSERT_EQ(err.back(), '\n');
  const std::string line = err.substr(0, err.size() - 1);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one record per line";
  EXPECT_TRUE(valid_json(line)) << line;
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"ts_ns\":"), std::string::npos);
  EXPECT_NE(line.find("\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
}

}  // namespace
}  // namespace flashr
