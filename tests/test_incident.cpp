// Incident-diagnostics tests (obs/incident.h, obs/crash_handler.h): the
// black-box post-mortem path must survive every exit the engine has.
//
//  * pass_stats::to_json() parity — the X-macro expansion guarantees every
//    struct field is a JSON key, so incident bundles can never silently lag
//    the struct again (zero_copy_chunks, degrade_steps and degrade_path
//    once did).
//  * A manual trigger, a SIGUSR2, and a watchdog trip (all three exec
//    modes) each produce a bundle with every required section.
//  * Abort paths (lock-rank inversion, invariant-validator failure) and a
//    real SIGSEGV in a forked child each leave a raw crash-*.bin dump that
//    reassemble_crash_dump() turns into a complete JSON post-mortem — the
//    same files tools/check_incident.py validates in CI.
//  * flight_json() and stacks_json() agree with the bundle, and retention
//    prunes exactly the oldest bundles: never a crash dump, never a
//    profile record sharing the directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include <dirent.h>

#include "common/check.h"
#include "common/config.h"
#include "common/error.h"
#include "common/thread_safety.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "core/validate.h"
#include "io/fault.h"
#include "mem/buffer_pool.h"
#include "obs/crash_handler.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/prof_store.h"
#include "obs/sampler.h"

namespace flashr {
namespace {

std::uint64_t metric(const char* name) {
  return obs::metrics_registry::global().value(name);
}

/// Names in `dir` that start with `prefix`, in name order.
std::vector<std::string> dir_entries(const std::string& dir,
                                     const std::string& prefix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fresh empty incident directory for one test.
std::string fresh_dir(const char* tag) {
  std::string dir = std::string("/tmp/flashr_test_incident_") + tag;
  ::system(("rm -rf " + dir).c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Poll `dir` until a file with `prefix` whose name contains `substr`
/// appears (the monitor thread composes bundles asynchronously; an
/// escalation may land sibling bundles of other kinds first). 10s is orders
/// of magnitude of slack over the 250ms trigger-pipe poll.
std::string wait_for_file(const std::string& dir, const std::string& prefix,
                          const std::string& substr = "") {
  for (int i = 0; i < 400; ++i) {
    for (const std::string& name : dir_entries(dir, prefix))
      if (substr.empty() || name.find(substr) != std::string::npos)
        return name;
    ::usleep(25 * 1000);
  }
  return "";
}

void small_init(exec_mode mode = exec_mode::cache_fuse) {
  options o;
  o.em_dir = "/tmp/flashr_test_em";
  o.num_threads = 4;
  o.io_part_rows = 64;
  o.pcache_bytes = 2048;
  o.small_nrow_threshold = 16;
  o.mode = mode;
  init(o);
  fault_injector::global().clear();
}

dense_matrix small_em_input() {
  smat h(1000, 7);
  for (std::size_t j = 0; j < 7; ++j)
    for (std::size_t i = 0; i < 1000; ++i)
      h(i, j) = 0.5 * static_cast<double>(i) - 1.25 * static_cast<double>(j);
  return conv_store(dense_matrix::from_smat(h), storage::ext_mem);
}

// ---------------------------------------------------------------------------
// pass_stats struct-field <-> JSON-key parity
// ---------------------------------------------------------------------------

// Every numeric field named by FLASHR_PASS_STATS_FIELDS must appear in
// to_json() with its exact value, plus degrade_path, and nothing else: the
// key count is pinned so a field added to the struct without extending the
// X-macro (which the static_assert in exec.h already rejects) — or a key
// typo in a future rewrite — fails here instead of silently dropping data
// from incident bundles.
TEST(PassStatsJson, FieldKeyParity) {
  exec::pass_stats s;
  // Distinct, recognisable values per field, in declaration order.
  std::uint64_t v = 1000;
#define FLASHR_SET_FIELD(f) s.f = static_cast<decltype(s.f)>(++v);
  FLASHR_PASS_STATS_FIELDS(FLASHR_SET_FIELD)
#undef FLASHR_SET_FIELD
  s.degrade_path = "depth:8->4,chunk:2048->1024";
  const std::string json = s.to_json();

  std::size_t fields = 0;
  v = 1000;
#define FLASHR_CHECK_FIELD(f)                                              \
  ++fields;                                                                \
  EXPECT_NE(json.find("\"" #f "\": " + std::to_string(++v)),               \
            std::string::npos)                                             \
      << #f << " missing or wrong in " << json;
  FLASHR_PASS_STATS_FIELDS(FLASHR_CHECK_FIELD)
#undef FLASHR_CHECK_FIELD
  EXPECT_NE(json.find("\"degrade_path\": \"depth:8->4,chunk:2048->1024\""),
            std::string::npos)
      << json;

  // Exactly one JSON key per numeric field + degrade_path.
  std::size_t keys = 0;
  for (std::size_t pos = json.find('"'); pos != std::string::npos;
       pos = json.find('"', pos + 1)) {
    ++keys;
  }
  // Keys are quoted twice; degrade_path's value adds one more quoted string.
  EXPECT_EQ(keys, (fields + 1) * 2 + 2) << json;
}

// ---------------------------------------------------------------------------
// Bundle writer and live views
// ---------------------------------------------------------------------------

TEST(IncidentBundle, ManualBundleHasEverySection) {
  small_init();
  const std::string dir = fresh_dir("manual");
  ASSERT_TRUE(obs::incident_arm(dir));

  // Real engine activity so the flight tail and pass table are non-trivial.
  dense_matrix x = small_em_input();
  (void)(x * 2.0 + 1.0).to_smat();

  const std::uint64_t bundles0 = metric("incident.bundles");
  const std::string name =
      obs::incident_write_bundle(obs::incident_kind::manual, "unit test");
  ASSERT_FALSE(name.empty());
  EXPECT_EQ(name.rfind("incident-", 0), 0u) << name;
  EXPECT_NE(name.find("-manual.json"), std::string::npos) << name;
  EXPECT_GE(metric("incident.bundles"), bundles0 + 1);

  const std::string body = slurp(dir + "/" + name);
  for (const char* section :
       {"\"schema\"", "\"trigger\"", "\"time\"", "\"build\"", "\"config\"",
        "\"flight\"", "\"stacks\"", "\"passes\"", "\"governor\"",
        "\"io_backend\"", "\"metrics\"", "\"log_tail\""}) {
    EXPECT_NE(body.find(section), std::string::npos)
        << section << " missing from " << name;
  }
  EXPECT_NE(body.find("flashr-incident-v1"), std::string::npos);
  EXPECT_NE(body.find("unit test"), std::string::npos);

  // The sections, called on their own, agree with what the bundle embeds.
  EXPECT_NE(obs::flight_json(0).find("\"threads\""), std::string::npos);
  EXPECT_NE(obs::stacks_json().find("\"ranks\""), std::string::npos);
  // The directory holds this one bundle, complete.
  EXPECT_EQ(dir_entries(dir, "incident-"), std::vector<std::string>{name});
  EXPECT_TRUE(body.ends_with("}\n"));

  obs::incident_disarm();
}

TEST(IncidentBundle, Sigusr2TriggersBundle) {
  small_init();
  const std::string dir = fresh_dir("sigusr2");
  ASSERT_TRUE(obs::incident_arm(dir));
  const std::uint64_t req0 = metric("incident.requests");

  ASSERT_EQ(::raise(SIGUSR2), 0);

  const std::string name = wait_for_file(dir, "incident-");
  ASSERT_FALSE(name.empty()) << "no bundle after SIGUSR2";
  EXPECT_NE(name.find("-manual.json"), std::string::npos) << name;
  EXPECT_GE(metric("incident.requests"), req0 + 1);
  const std::string body = slurp(dir + "/" + name);
  EXPECT_NE(body.find("SIGUSR2"), std::string::npos);
  obs::incident_disarm();
}

// A watchdog trip (stalled completions, io/fault.h `stall` site) must file
// an incident and the monitor must land a validated bundle — in every
// execution mode, since the trip fires from mode-specific pass loops.
TEST(IncidentBundle, WatchdogTripWritesBundleInEveryMode) {
  const exec_mode modes[] = {exec_mode::eager, exec_mode::mem_fuse,
                             exec_mode::cache_fuse};
  for (exec_mode mode : modes) {
    small_init(mode);
    const std::string dir =
        fresh_dir((std::string("wd_") + exec_mode_name(mode)).c_str());
    ASSERT_TRUE(obs::incident_arm(dir));
    mutable_conf().watchdog_stall_ms = 50;

    dense_matrix x = small_em_input();
    {
      fault_plan p;
      p.seed = 90;
      p.stall_prob = 1.0;
      p.stall_us = 150000;
      fault_scope scope(p);
      try {
        dense_matrix y = x + 1.0;
        y.materialize(storage::in_mem);
        FAIL() << "expected timeout_error in " << exec_mode_name(mode);
      } catch (const timeout_error&) {
      }
    }

    const std::string name = wait_for_file(dir, "incident-", "watchdog-trip");
    ASSERT_FALSE(name.empty())
        << "no bundle after watchdog trip in " << exec_mode_name(mode);
    const std::string body = slurp(dir + "/" + name);
    EXPECT_NE(body.find("\"governor\""), std::string::npos);
    EXPECT_NE(body.find("\"flight\""), std::string::npos);
    obs::incident_disarm();
  }
}

TEST(IncidentBundle, BundleCountStaysBounded) {
  small_init();
  mutable_conf().incident_max_bundles = 3;
  const std::string dir = fresh_dir("prune");
  ASSERT_TRUE(obs::incident_arm(dir));
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    names.push_back(
        obs::incident_write_bundle(obs::incident_kind::manual, "prune"));
    ASSERT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(dir_entries(dir, "incident-"),
            std::vector<std::string>(names.end() - 3, names.end()));
  obs::incident_disarm();
}

// Both stores may share one directory. Each prunes only its own family of
// names, newest kept by name, and neither touches a crash dump or leaves a
// temp file behind.
TEST(ArtifactDir, PruneSparesOtherFamilies) {
  small_init();
  mutable_conf().incident_max_bundles = 3;
  // The profile store writes a record only once the sampler folded samples.
  obs::sampler_start(997);
  const std::uint64_t t0 = now_ns();
  volatile double sink = 1.0;
  while (now_ns() - t0 < 100000000ull) sink = sink * 1.0000001 + 1e-9;
  obs::sampler_stop();
  ASSERT_GT(obs::sampler_stats().samples, 0u);
  const std::string dir = fresh_dir("shared");
  ASSERT_TRUE(obs::incident_arm(dir));
  obs::prof_store_arm(dir, /*keep=*/3);
  const std::string crash = "crash-1-sig11.bin";
  {
    std::ofstream out(dir + "/" + crash);
    out << "not pruned";
  }

  std::vector<std::string> bundles;
  std::vector<std::string> records;
  for (int i = 0; i < 5; ++i) {
    bundles.push_back(
        obs::incident_write_bundle(obs::incident_kind::manual, "shared"));
    records.push_back(obs::prof_store_append("shared"));
    ASSERT_FALSE(bundles.back().empty());
    ASSERT_FALSE(records.back().empty());
  }
  obs::prof_store_disarm();
  obs::incident_disarm();
  obs::sampler_clear();

  std::sort(bundles.begin(), bundles.end());
  std::sort(records.begin(), records.end());
  std::vector<std::string> want(bundles.end() - 3, bundles.end());
  want.insert(want.end(), records.end() - 3, records.end());
  want.push_back(crash);
  std::sort(want.begin(), want.end());
  // Hidden names are temp files. The only one that may remain is the file
  // the crash handler pre-opens at arm time (obs/crash_handler.cpp).
  std::vector<std::string> visible;
  for (const std::string& name : dir_entries(dir, "")) {
    if (name == "." || name == "..") continue;
    if (name[0] == '.') {
      EXPECT_EQ(name, ".crash.tmp") << "temp file left behind";
      continue;
    }
    visible.push_back(name);
  }
  EXPECT_EQ(visible, want);
}

// ---------------------------------------------------------------------------
// Abort and crash paths: the raw dump + offline reassembly
// ---------------------------------------------------------------------------

// Death-test children re-exec the binary with the parent's environment, so
// exporting FLASHR_INCIDENT_DIR here makes the child's config init arm the
// crash handler; the abort then writes crash-*.bin, which the parent
// reassembles — asserting the exact artifact CI validates.
class CrashDumpDeathTest : public ::testing::Test {
 protected:
  void arm_env(const char* tag) {
    dir_ = fresh_dir(tag);
    ::setenv("FLASHR_INCIDENT_DIR", dir_.c_str(), 1);
  }
  void TearDown() override { ::unsetenv("FLASHR_INCIDENT_DIR"); }

  /// Reassembled JSON of the single crash dump the child left behind.
  std::string reassembled() {
    std::vector<std::string> dumps = dir_entries(dir_, "crash-");
    EXPECT_EQ(dumps.size(), 1u) << "expected exactly one crash dump";
    if (dumps.empty()) return "";
    return obs::reassemble_crash_dump(dir_ + "/" + dumps.front());
  }

  std::string dir_;
};

TEST_F(CrashDumpDeathTest, LockRankAbortLeavesCompleteDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  arm_env("lockrank");
  EXPECT_DEATH(
      {
        conf();  // lazy init reads FLASHR_INCIDENT_DIR and arms
        invariant_scope on;
        mutex low LOCK_RANK(watchdog);
        mutex high LOCK_RANK(metrics_registry);
        mutex_lock outer(high);
        mutex_lock inner(low);  // 200 acquired under 700
      },
      "lock rank inversion");
  const std::string json = reassembled();
  EXPECT_NE(json.find("flashr-crash-v1"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("lock rank inversion"), std::string::npos) << json;
  // The crashed thread's held ranks made it into the dump: it held
  // metrics_registry (700) — and the inverted watchdog lock (200) was noted
  // before the checker fired.
  EXPECT_NE(json.find("\"held_ranks\""), std::string::npos);
  EXPECT_NE(json.find("700"), std::string::npos) << json;
}

TEST_F(CrashDumpDeathTest, InvariantAbortLeavesCompleteDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  arm_env("invariant");
  EXPECT_DEATH(
      {
        conf();
        invariant_scope on;
        buffer_pool pool;
        pool_debug::seed_double_return(pool);
      },
      "pool buffer returned twice");
  const std::string json = reassembled();
  EXPECT_NE(json.find("flashr-crash-v1"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("returned twice"), std::string::npos) << json;
}

// A real SIGSEGV in a forked child: the child inherits the armed handler
// and pre-opened dump fd, dies by signal with no atexit/flush help, and
// the parent reassembles the raw dump it left. This is the honest version
// of the crash story — nothing in the child's death path may allocate,
// lock or log (the analyzer enforces it statically; this test proves the
// dump survives the real signal).
TEST(CrashDump, SigsegvInForkedChildReassembles) {
  small_init();
  const std::string dir = fresh_dir("sigsegv");
  ASSERT_TRUE(obs::incident_arm(dir));
  // Engine activity so the child's inherited flight rings hold real events.
  dense_matrix x = small_em_input();
  (void)(x + 1.0).to_smat();
  // Let the monitor stage STAT/METR static sections at least once.
  ::usleep(300 * 1000);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die exactly as a stray pointer would kill us.
    ::raise(SIGSEGV);
    ::_exit(97);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::vector<std::string> dumps = dir_entries(dir, "crash-");
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps.front().find("sig11"), std::string::npos) << dumps.front();
  const std::string json = obs::reassemble_crash_dump(dir + "/" + dumps.front());
  EXPECT_NE(json.find("flashr-crash-v1"), std::string::npos);
  EXPECT_NE(json.find("\"signal\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"flight\""), std::string::npos);
  obs::incident_disarm();
}

}  // namespace
}  // namespace flashr
