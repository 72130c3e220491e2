// Sampling-profiler tests (src/obs/sampler.*, prof_store.* and the
// Prometheus histogram export): zero-cost-off gating, folded-stack shape,
// module+offset names for unexported frames, wait-state attribution,
// sampled on-CPU time covering explain_analyze's measured kernel time on
// one thread, timer overruns of a pending signal counted as samples, the
// flashr-prof-v1 store's round trip, retention, concurrent writers and
// silence without samples, and concurrent reads of the sampler's exports
// while passes run (TSan gate).
#include <gtest/gtest.h>

#include <dirent.h>
#include <dlfcn.h>
#include <pthread.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "core/governor.h"
#include "obs/metrics.h"
#include "obs/prof_store.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace flashr {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FLASHR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLASHR_TEST_SANITIZED 1
#endif
#endif

options sampler_options() {
  options o;
  o.em_dir = "/tmp/flashr_test_sampler";
  o.num_threads = 2;
  o.io_part_rows = 1024;
  o.pcache_bytes = 4096;
  o.small_nrow_threshold = 16;
  return o;
}

/// Leave the process exactly as a fresh test expects it: sampler stopped,
/// aggregates dropped, store disarmed.
void sampler_reset() {
  obs::sampler_stop();
  obs::sampler_clear();
  obs::prof_store_disarm();
}

/// Burn CPU until `ms` of wall time passed (keeps the thread on-CPU so
/// wall-clock samples land in state cpu).
void spin_ms(std::uint64_t ms) {
  const std::uint64_t t0 = now_ns();
  volatile double sink = 1.0;
  while (now_ns() - t0 < ms * 1000000ull) {
    for (int i = 0; i < 4096; ++i) sink = sink * 1.0000001 + 1e-9;
  }
}

/// The return address spin_stamped() was called with: the pc the frame walk
/// records for spin_in_unexported_caller()'s frame.
std::uintptr_t g_stamped_ret = 0;

[[gnu::noinline]] void spin_stamped(std::uint64_t ms) {
  g_stamped_ret =
      reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  spin_ms(ms);
}

/// Internal linkage and never inlined: a frame of the test binary that no
/// exported symbol covers.
[[gnu::noinline]] void spin_in_unexported_caller(std::uint64_t ms) {
  spin_stamped(ms);
  asm volatile("" ::: "memory");  // not a tail call: keep this frame
}

/// Split folded text into non-empty lines.
std::vector<std::string> folded_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// "track;state;frames... count" — positive trailing count, >= 2 frames.
void expect_well_formed(const std::string& line) {
  const std::size_t sp = line.rfind(' ');
  ASSERT_NE(sp, std::string::npos) << line;
  ASSERT_LT(sp + 1, line.size()) << line;
  for (std::size_t i = sp + 1; i < line.size(); ++i)
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
  EXPECT_GT(std::strtoull(line.c_str() + sp + 1, nullptr, 10), 0u) << line;
  const std::string head = line.substr(0, sp);
  EXPECT_NE(head.find(';'), std::string::npos)
      << "no track;state separator: " << line;
}

/// Names in `dir` other than "." and "..", sorted.
std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* de = ::readdir(d)) {
      const std::string name = de->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string slurp(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  return text;
}

/// Total count of the folded lines that start with `prefix` (say
/// "main;cpu;": every on-CPU sample of the main thread).
std::uint64_t folded_count(const std::string& folded,
                           const std::string& prefix) {
  std::uint64_t total = 0;
  for (const std::string& line : folded_lines(folded))
    if (line.starts_with(prefix))
      total += std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
  return total;
}

std::uint64_t sum_u64(const std::string& json, const std::string& key,
                      std::size_t from) {
  const std::string needle = "\"" + key + "\": ";
  std::uint64_t total = 0;
  for (std::size_t pos = json.find(needle, from); pos != std::string::npos;
       pos = json.find(needle, pos + 1))
    total += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
  return total;
}

// ---------------------------------------------------------------------------
// Core sampler
// ---------------------------------------------------------------------------

TEST(Sampler, OffByDefaultCostsNothing) {
  sampler_reset();
  EXPECT_FALSE(obs::sampler_on());
  // Scopes are inert while off: no context mutation, no samples.
  {
    obs::probe wait({.wait = obs::sample_state::io_wait});
    spin_ms(5);
  }
  const obs::sampler_counters c = obs::sampler_stats();
  EXPECT_EQ(c.hz, 0u);
  EXPECT_EQ(c.samples, 0u);
  EXPECT_TRUE(obs::folded_stacks().empty());
}

TEST(Sampler, CollectsWellFormedFoldedStacks) {
  sampler_reset();
  obs::sampler_start(997);
  ASSERT_TRUE(obs::sampler_on());
  spin_ms(300);
  obs::sampler_stop();
  EXPECT_FALSE(obs::sampler_on());

  const obs::sampler_counters c = obs::sampler_stats();
  EXPECT_GT(c.samples, 0u) << "no samples after 300ms at 997 Hz";

  const std::string folded = obs::folded_stacks();
  const std::vector<std::string> lines = folded_lines(folded);
  ASSERT_FALSE(lines.empty());
  bool saw_main_cpu = false;
  for (const std::string& line : lines) {
    expect_well_formed(line);
    if (line.rfind("main;cpu", 0) == 0) saw_main_cpu = true;
  }
  EXPECT_TRUE(saw_main_cpu)
      << "main thread spun on-CPU but no main;cpu stack:\n" << folded;
  sampler_reset();
}

// A frame under no exported symbol is named by its object and its offset
// from the object's load base, which ASLR does not move, instead of its
// absolute address.
TEST(Sampler, UnexportedFramesRenderAsModuleOffset) {
  sampler_reset();
  obs::sampler_start(997);
  spin_in_unexported_caller(300);
  obs::sampler_stop();

  Dl_info info;
  ASSERT_NE(::dladdr(reinterpret_cast<void*>(g_stamped_ret), &info), 0);
  ASSERT_EQ(info.dli_sname, nullptr)
      << "spin_in_unexported_caller is exported as " << info.dli_sname;
  char want[256];
  std::snprintf(want, sizeof(want), ";%s+0x%zx;",
                program_invocation_short_name,
                static_cast<std::size_t>(
                    g_stamped_ret -
                    reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
  const std::string folded = obs::folded_stacks();
  EXPECT_NE(folded.find(want), std::string::npos)
      << "no frame " << want << " in:\n" << folded;
  sampler_reset();
}

TEST(Sampler, WaitScopeSplitsOffCpu) {
  sampler_reset();
  obs::sampler_start(997);
  {
    obs::probe ws({.wait = obs::sample_state::io_wait});
    // Wall-clock timers keep firing while the thread sleeps — that is the
    // point: blocked time is sampled and attributed off-CPU.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  obs::sampler_stop();

  const std::string folded = obs::folded_stacks();
  EXPECT_GT(folded_count(folded, "main;io_wait;"), 0u)
      << "sleep under an io_wait probe took no io_wait samples:\n"
      << folded;
  sampler_reset();
}

// A thread parked with no work is idle, not cpu. The watchdog waits on its
// condition variable through every pass that sets no deadline and no stall
// bound, and it parked before the sampler started, so none of its samples
// may read cpu; io-0 parks the same way on an empty request FIFO.
TEST(Sampler, ParkedThreadsSampleIdle) {
  sampler_reset();
  init(sampler_options());
  const dense_matrix x = conv_store(
      dense_matrix::runif(64 * 1024, 4, 0.0, 1.0, 3), storage::ext_mem);
  EXPECT_GT(sum(x).scalar(), 0.0);  // the first pass starts the watchdog
  obs::sampler_start(997);
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(sum(x * 2.0).scalar(), 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  obs::sampler_stop();

  const std::string folded = obs::folded_stacks();
  EXPECT_EQ(folded_count(folded, "watchdog;cpu;"), 0u) << folded;
  EXPECT_GT(folded_count(folded, "watchdog;idle;"), 0u) << folded;
  EXPECT_GT(folded_count(folded, "io-0;idle;"), 0u) << folded;
  sampler_reset();
}

// The caller joining a job's other workers waits; it does not run. A job
// whose second worker sleeps ~300 ms keeps the caller in run_all's join
// throughout, so its samples there read lock_wait, not cpu. The sampler's
// own start and stop are tagged idle, which leaves run_all as the only
// place a main-thread cpu sample can come from: at most one may land on
// its few microseconds of publishing the job.
TEST(Sampler, PoolJoinWaitSamplesLockWait) {
  sampler_reset();
  thread_pool pool(2);
  {
    obs::sample_idle_scope outside;
    obs::sampler_start(997);
  }
  pool.run_all([](int idx) {
    if (idx == 1) std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  {
    obs::sample_idle_scope outside;
    obs::sampler_stop();
  }
  const std::string folded = obs::folded_stacks();
  EXPECT_GT(folded_count(folded, "main;lock_wait;"), 0u) << folded;
  EXPECT_LE(folded_count(folded, "main;cpu;"), 1u) << folded;
  sampler_reset();
}

TEST(Sampler, WriteFoldedRoundTrip) {
  sampler_reset();
  obs::sampler_start(997);
  spin_ms(150);
  obs::sampler_stop();

  const std::string path = "/tmp/flashr_test_sampler_folded.txt";
  const obs::folded_summary s = obs::write_folded(path);
  EXPECT_GT(s.lines, 0u);
  EXPECT_GT(s.samples, 0u);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::string text;
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(folded_lines(text).size(), s.lines);
  std::remove(path.c_str());
  sampler_reset();
}

// Acceptance gate: with one worker thread, sampled on-CPU time (cpu
// samples x period) must cover the pass profile's measured kernel+copy
// time. At num_threads = 1 the caller runs the pass as worker 0, so every
// kernel runs on the main thread and all of its on-CPU samples count. No
// outer frame filters them: the walk keeps 28 frames, leaf first, and a
// sample deep in this chain can sit further from the root than that.
// Both sides are wall-clock measures of the same work, so the ratio is ~1
// up to sampling noise and the analysis's own bookkeeping.
TEST(Sampler, ExplainAnalyzeSampledSelfTimeCoverage) {
  constexpr int kHz = 1997;
  sampler_reset();
  options o = sampler_options();
  o.num_threads = 1;
  o.obs_sample_hz = kHz;
  init(o);
  obs::profile_clear();

  dense_matrix X = dense_matrix::runif(500000, 4, 0.1, 1.0, 3);
  dense_matrix v = log(X + 1.0);
  v = exp(v * 0.5);
  v = sigmoid(v);
  v = sqrt(v + 0.25);
  v = log1p(v * v);
  const std::string json = sum(v).explain_analyze();

  init(sampler_options());  // hz back to 0 — stops the sampler
  const std::size_t totals = json.find("\"totals\":");
  ASSERT_NE(totals, std::string::npos);
  const std::uint64_t kernel = sum_u64(json, "kernel_ns", totals) +
                               sum_u64(json, "copy_ns", totals);
  const std::string folded = obs::folded_stacks();
  const std::uint64_t samples = folded_count(folded, "main;cpu;");
  ASSERT_GT(kernel, 0u);
#ifdef FLASHR_TEST_SANITIZED
  // Sanitizer runtimes intercept signal delivery and skew both measures;
  // presence is enough there.
  EXPECT_GT(samples, 0u) << folded;
#else
  ASSERT_GT(samples, 20u) << folded;
  const std::uint64_t sampled = samples * (1'000'000'000ULL / kHz);
  const double cover =
      static_cast<double>(sampled) / static_cast<double>(kernel);
  EXPECT_GE(cover, 0.80) << "sampled " << sampled << " ns vs kernel "
                         << kernel << " ns\n" << json;
  EXPECT_LE(cover, 1.60) << "sampled self-time double-counted?\n" << json;
#endif
  sampler_reset();
}

// While SIGPROF is pending, further expirations of the thread's timer are
// merged into it as overruns: the thread was descheduled or, here, had the
// signal masked. Each one is a sampling period that passed, so the count
// must include them. Masked for ~200 ms at 997 Hz, the weighted count
// covers the ~200 periods where an unweighted one would see one sample.
TEST(Sampler, TimerOverrunsAreCounted) {
  constexpr int kHz = 997;
  sampler_reset();
  obs::sampler_start(kHz);
  std::uint64_t masked_ns = 0;
  {
    sigset_t prof;
    sigset_t old;
    sigemptyset(&prof);
    sigaddset(&prof, SIGPROF);
    ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &prof, &old), 0);
    const std::uint64_t t0 = now_ns();
    spin_ms(200);
    masked_ns = now_ns() - t0;
    // The pending signal is delivered here, on unmasking.
    EXPECT_EQ(pthread_sigmask(SIG_SETMASK, &old, nullptr), 0);
  }
  obs::sampler_stop();

  const std::uint64_t counted = folded_count(obs::folded_stacks(), "main;");
  const double periods = static_cast<double>(masked_ns) /
                         static_cast<double>(1'000'000'000ULL / kHz);
  EXPECT_GE(static_cast<double>(counted), 0.8 * periods)
      << counted << " samples for " << periods << " masked timer periods";
  sampler_reset();
}

TEST(Sampler, RestartAndClear) {
  sampler_reset();
  obs::sampler_start(499);
  EXPECT_EQ(obs::sampler_stats().hz, 499u);
  obs::sampler_start(997);  // re-arm at a new rate
  EXPECT_EQ(obs::sampler_stats().hz, 997u);
  spin_ms(100);
  obs::sampler_stop();
  EXPECT_GT(obs::sampler_stats().samples, 0u);
  obs::sampler_clear();
  EXPECT_EQ(obs::sampler_stats().samples, 0u);
  EXPECT_TRUE(obs::folded_stacks().empty());
}

// ---------------------------------------------------------------------------
// Profile-history store (flashr-prof-v1)
// ---------------------------------------------------------------------------

TEST(ProfStore, RecordRoundTripAndPrune) {
  sampler_reset();
  const std::string dir = "/tmp/flashr_test_prof_store";
  std::system(("rm -rf " + dir).c_str());

  obs::sampler_start(997);
  spin_ms(150);
  obs::sampler_stop();

  obs::prof_store_arm(dir, /*keep=*/3);
  ASSERT_TRUE(obs::prof_store_armed());
  std::vector<std::string> names;
  for (int i = 0; i < 5; ++i) {
    names.push_back(obs::prof_store_append("test"));
    ASSERT_FALSE(names.back().empty());
  }
  const std::string last = names.back();
  EXPECT_EQ(last.rfind("prof-", 0), 0u) << last;

  // Retention: exactly the newest `keep` records remain, and no temp file.
  std::sort(names.begin(), names.end());
  EXPECT_EQ(list_dir(dir), std::vector<std::string>(names.end() - 3,
                                                    names.end()));

  const std::string body = slurp(dir + "/" + last);
  EXPECT_NE(body.find("\"schema\":\"flashr-prof-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"label\":\"test\""), std::string::npos);
  EXPECT_NE(body.find("\"stacks\":[{\"stack\":"), std::string::npos)
      << "sampled stacks lost in the record:\n" << body;
  EXPECT_NE(body.find("{\"stack\":\"main;cpu;"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"nodes\""), std::string::npos) << body;

  obs::prof_store_disarm();
  EXPECT_FALSE(obs::prof_store_armed());
  EXPECT_EQ(obs::prof_store_append("after-disarm"), "");
  std::system(("rm -rf " + dir).c_str());
  sampler_reset();
}

// Processes sharing one store directory keep every record: each append
// writes through its own temp file, so no writer renames or truncates
// another's half-written record. (FLASHR_PROF_DIR=<dir> under `ctest -j`
// appends a record at every test process's exit.) The children fork before
// this process starts any engine thread: no pass has run, and the sampler
// and the incident monitor are off.
TEST(ProfStore, ConcurrentWritersKeepEveryRecord) {
  sampler_reset();
  // A record needs folded samples; the children inherit these.
  obs::sampler_start(997);
  spin_ms(100);
  obs::sampler_stop();
  ASSERT_GT(obs::sampler_stats().samples, 0u);
  constexpr int kChildren = 4;
  constexpr int kRecords = 20;
  const std::string dir =
      "/tmp/flashr_test_prof_writers_" + std::to_string(::getpid());
  std::system(("rm -rf " + dir).c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  // Start barrier: each child blocks reading the pipe until the parent
  // closes it, so all four append at once.
  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  std::vector<pid_t> children;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(go[1]);
      char b;
      (void)!::read(go[0], &b, 1);
      obs::prof_store_arm(dir, /*keep=*/1000);
      int lost = 0;
      for (int i = 0; i < kRecords; ++i)
        if (obs::prof_store_append("writer").empty()) ++lost;
      ::_exit(lost == 0 ? 0 : 1);  // _exit: no at-exit record
    }
    children.push_back(pid);
  }
  ::close(go[0]);
  ::close(go[1]);
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a child's append failed (wait status " << status << ")";
  }

  const std::vector<std::string> names = list_dir(dir);
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kChildren * kRecords));
  for (const std::string& name : names) {
    ASSERT_TRUE(name.starts_with("prof-") && name.ends_with(".json"))
        << "stray file " << name;
    const std::string body = slurp(dir + "/" + name);
    EXPECT_EQ(body.rfind("{\"schema\":\"flashr-prof-v1\"", 0), 0u) << name;
    EXPECT_TRUE(body.ends_with("}\n")) << name << ":\n" << body;
    EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 1) << name;
  }
  std::system(("rm -rf " + dir).c_str());
  sampler_reset();
}

// With the sampler off there is nothing to attribute: the store writes no
// record, so none pushes a useful one out of retention.
TEST(ProfStore, NoRecordWithoutSamples) {
  sampler_reset();
  const std::string dir =
      "/tmp/flashr_test_prof_empty_" + std::to_string(::getpid());
  std::system(("rm -rf " + dir).c_str());
  obs::prof_store_arm(dir, /*keep=*/3);
  ASSERT_TRUE(obs::prof_store_armed());
  EXPECT_EQ(obs::prof_store_append("no-samples"), "");
  for (const std::string& name : list_dir(dir))
    EXPECT_FALSE(name.starts_with("prof-")) << "record without samples: "
                                            << name;
  obs::prof_store_disarm();
  std::system(("rm -rf " + dir).c_str());
}

// ---------------------------------------------------------------------------
// Concurrent readers
// ---------------------------------------------------------------------------

// TSan gate: reading the sampler's exports and the other obs snapshots
// while sampled materializations run must be race-free. In production the
// incident monitor and the crash handler's staging read these while
// passes run.
TEST(StatsServerSampler, ConcurrentScrapeWhileSampling) {
  sampler_reset();
  options o = sampler_options();
  o.obs_profile = true;
  o.obs_metrics = true;
  o.obs_sample_hz = 499;
  init(o);
  obs::profile_clear();

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread reader([&stop, &scrapes] {
    const auto& reg = obs::metrics_registry::global();
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::folded_stacks();
      if (!obs::prof_record_json("reader").empty()) ++scrapes;
      (void)reg.to_prometheus();
      (void)reg.to_json();
      (void)obs::profile_history_json();
      (void)exec::resource_governor::global().health().to_json();
    }
  });

  for (int i = 0; i < 3; ++i) {
    dense_matrix X = dense_matrix::runif(60000, 4, 0.1, 1.0, 11 + i);
    (void)sum(exp(X * 0.5)).scalar();
  }

  stop.store(true);
  reader.join();
  EXPECT_GT(scrapes.load(), 0);
  init(sampler_options());
  sampler_reset();
}

// ---------------------------------------------------------------------------
// Prometheus export of the power-of-two histograms
// ---------------------------------------------------------------------------

// Histograms export as summaries: p50/p95/p99 quantiles read from the
// buckets, plus _sum and _count.
TEST(PromBuckets, HistogramsExportAsSummaries) {
  auto& h = obs::metrics_registry::global().get_histogram("samp.bucket_test");
  h.reset();
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(100);

  const std::string prom = obs::metrics_registry::global().to_prometheus();
  const std::string name = "flashr_samp_bucket_test";
  EXPECT_NE(prom.find("# TYPE " + name + " summary"), std::string::npos);
  EXPECT_NE(prom.find(name + "{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find(name + "_count 5\n"), std::string::npos);
  EXPECT_NE(prom.find(name + "_sum 106\n"), std::string::npos);
  EXPECT_EQ(prom.find(name + "_bucket"), std::string::npos);
}

// The sampler's own health counters are exported for check_prom --require.
TEST(PromBuckets, SamplerCountersExported) {
  obs::sampler_register_metrics();
  const std::string prom = obs::metrics_registry::global().to_prometheus();
  EXPECT_NE(prom.find("flashr_sampler_samples"), std::string::npos);
  EXPECT_NE(prom.find("flashr_sampler_drops"), std::string::npos);
}

}  // namespace
}  // namespace flashr
