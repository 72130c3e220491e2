// Shared harness for the paper-reproduction benchmarks.
//
// Each bench binary reproduces one table or figure from §4 of the paper and
// prints (a) the measured rows/series in a paper-like layout and (b) the
// paper's qualitative expectation, so EXPERIMENTS.md can be regenerated by
// just running the binaries. Scales are container-sized; set FLASHR_BENCH_N
// to override the base row count.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/timer.h"
#include "core/dense_matrix.h"
#include "core/exec.h"
#include "io/safs.h"
#include "obs/metrics.h"

namespace flashr::bench {

/// Base row count for benchmark datasets (default 1M; FLASHR_BENCH_N
/// overrides). Figures quote workloads relative to this.
inline std::size_t base_n() {
  if (const char* env = std::getenv("FLASHR_BENCH_N"))
    return static_cast<std::size_t>(std::atoll(env));
  return 1'000'000;
}

/// Initialize the engine with bench-appropriate settings.
inline void bench_init(const std::string& em_subdir) {
  options o;
  o.em_dir = "/tmp/flashr_bench_" + em_subdir;
  init(o);
}

/// Time a callable (median of `reps` runs, default 1 — most benches time
/// multi-second algorithm runs where one observation suffices).
inline double time_once(const std::function<void()>& fn) {
  timer t;
  fn();
  return t.seconds();
}

/// Median wall time over `reps` runs (sweeps comparing close configurations
/// need more than one observation).
inline double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps < 1 ? 1 : reps));
  for (int i = 0; i < reps || times.empty(); ++i) times.push_back(time_once(fn));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Print a table header like the paper's figures.
inline void header(const char* title, const char* note) {
  std::printf("\n==== %s ====\n", title);
  if (note && note[0]) std::printf("%s\n", note);
}

struct series_row {
  std::string label;
  std::vector<double> values;
};

/// Print rows of named series with a column header.
inline void print_table(const std::vector<std::string>& cols,
                        const std::vector<series_row>& rows,
                        const char* value_fmt = "%10.3f") {
  std::printf("%-24s", "");
  for (const auto& c : cols) std::printf("%12s", c.c_str());
  std::printf("\n");
  for (const auto& r : rows) {
    std::printf("%-24s", r.label.c_str());
    for (double v : r.values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), value_fmt, v);
      std::printf("%12s", buf);
    }
    std::printf("\n");
  }
}

/// Set the execution mode / throttle between runs.
inline void set_mode(exec_mode m) { mutable_conf().mode = m; }
inline void set_throttle(double mbps) {
  mutable_conf().io_throttle_mbps = mbps;
}

// ---------------------------------------------------------------------------
// Machine-readable output
// ---------------------------------------------------------------------------

/// Collects flat records and writes them as one JSON document
/// (`BENCH_<name>.json`, or under $FLASHR_BENCH_JSON_DIR when set), so CI
/// can upload benchmark results as artifacts and sweeps can be diffed
/// without scraping the printed tables. Usage:
///
///   bench_json out("pipeline");
///   out.rec().kv("depth", 4).kv("seconds", t).kv("mode", "cache-fuse");
///   out.write();
class bench_json {
 public:
  explicit bench_json(std::string name) : name_(std::move(name)) {}

  /// Start a new record; subsequent kv() calls fill it.
  bench_json& rec() {
    records_.emplace_back();
    return *this;
  }
  bench_json& kv(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return raw(key, buf);
  }
  bench_json& kv(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  bench_json& kv(const char* key, unsigned long long v) {
    return raw(key, std::to_string(v));
  }
  bench_json& kv(const char* key, int v) {
    return kv(key, static_cast<long long>(v));
  }
  bench_json& kv(const char* key, std::size_t v) {
    return kv(key, static_cast<unsigned long long>(v));
  }
  bench_json& kv(const char* key, const std::string& v) {
    return raw(key, "\"" + escape(v) + "\"");
  }
  bench_json& kv(const char* key, const char* v) {
    return kv(key, std::string(v));
  }

  /// Where the documents land: $FLASHR_BENCH_JSON_DIR with a trailing
  /// '/', or "" for the working directory.
  static std::string dir() {
    std::string d;
    if (const char* env = std::getenv("FLASHR_BENCH_JSON_DIR")) d = env;
    if (!d.empty() && d.back() != '/') d += '/';
    return d;
  }

  std::string path() const { return dir() + "BENCH_" + name_ + ".json"; }

  /// Serialize all records; returns false (and prints a warning) on I/O
  /// failure so benches keep their printed output authoritative. Every
  /// document also embeds the engine's final counters (io_stats, the last
  /// materialization's pass_stats, and the obs metrics registry) so a bench
  /// artifact carries the I/O profile that produced its numbers.
  bool write() const {
    const std::string p = path();
    std::FILE* f = std::fopen(p.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", p.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 escape(name_).c_str());
    for (std::size_t i = 0; i < records_.size(); ++i)
      std::fprintf(f, "    {%s}%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    std::fprintf(f, "  ],\n  \"engine\": %s\n}\n", engine_stats_json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", p.c_str());
    return true;
  }

  /// The "engine" object embedded by write(): final io_stats counters, the
  /// last pass_stats snapshot, and the metrics registry.
  static std::string engine_stats_json() {
    auto& ios = io_stats::global();
    char io_buf[256];
    std::snprintf(
        io_buf, sizeof(io_buf),
        "{\"read_ops\": %zu, \"read_bytes\": %zu, \"write_ops\": %zu, "
        "\"write_bytes\": %zu, \"retries\": %zu}",
        ios.read_ops.load(), ios.read_bytes.load(), ios.write_ops.load(),
        ios.write_bytes.load(), ios.retries.load());
    std::string out = "{\n    \"io\": ";
    out += io_buf;
    out += ",\n    \"pass\": " + exec::last_pass_stats().to_json();
    out += ",\n    \"metrics\": " +
           obs::metrics_registry::global().to_json();
    out += "\n  }";
    return out;
  }

 private:
  bench_json& raw(const char* key, const std::string& val) {
    std::string& r = records_.back();
    if (!r.empty()) r += ", ";
    r += "\"" + escape(key) + "\": " + val;
    return *this;
  }
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::string> records_;
};

}  // namespace flashr::bench
