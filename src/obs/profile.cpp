#include "obs/profile.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/thread_safety.h"
#include "common/timer.h"
#include "core/exec.h"
#include "obs/explain.h"

namespace flashr::obs {

namespace detail {
std::atomic<bool> g_profile_on{false};
}  // namespace detail

void set_profile_enabled(bool on) {
  detail::g_profile_on.store(on, std::memory_order_relaxed);
}

namespace {

struct armed_node {
  int id = -1;
  plan_node_meta meta;
};

struct profile_state {
  mutex prof_mtx LOCK_RANK(profile);
  /// Resolved store (or aliased result store) -> armed plan node.
  std::unordered_map<const matrix_store*, armed_node> armed GUARDED_BY(prof_mtx);
  std::uint64_t pass_seq GUARDED_BY(prof_mtx) = 0;
  std::deque<pass_profile> history GUARDED_BY(prof_mtx);
};

profile_state& state() {
  static profile_state* s = new profile_state();  // leaked: a bundle composed
  return *s;                                      // at exit may still read it
}

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void append_node(std::string& out, const node_profile& n) {
  append(out, "{\"id\": %d, \"op\": \"%s\"", n.id, n.op);
  if (n.sink) out += ", \"sink\": true";
  if (n.leaf) out += ", \"leaf\": true";
  append(out,
         ", \"group\": %d, \"est_bytes\": %" PRIu64 ", \"kernel_ns\": %" PRIu64
         ", \"copy_ns\": %" PRIu64 ", \"io_wait_ns\": %" PRIu64
         ", \"partitions\": %" PRIu64 ", \"rows\": %" PRIu64
         ", \"bytes\": %" PRIu64 ", \"chunks\": %" PRIu64,
         n.group, n.est_bytes, n.kernel_ns, n.copy_ns, n.io_wait_ns,
         n.partitions, n.rows, n.bytes, n.chunks);
  out += '}';
}

}  // namespace

node_counters& node_counters::operator+=(const node_counters& o) {
  kernel_ns += o.kernel_ns;
  copy_ns += o.copy_ns;
  io_wait_ns += o.io_wait_ns;
  partitions += o.partitions;
  rows += o.rows;
  bytes += o.bytes;
  chunks += o.chunks;
  return *this;
}

std::string pass_profile::to_json() const {
  std::string out;
  append(out,
         "{\"seq\": %" PRIu64 ", \"mode\": \"%s\", \"chunk_rows\": %zu, "
         "\"threads\": %d, \"wall_ns\": %" PRIu64 ", \"io_wait_ns\": %" PRIu64,
         seq, mode, chunk_rows, threads, wall_ns, io_wait_ns);
  out += ", \"degrade\": [";
  for (std::size_t i = 0; i < degrade.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + degrade[i] + "\"";
  }
  out += "], \"nodes\": [";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    append_node(out, nodes[i]);
  }
  out += "]}";
  return out;
}

void profile_begin(const std::vector<matrix_store::ptr>& targets) {
  plan_summary plan = summarize(targets);
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  s.armed.clear();
  for (const plan_node& n : plan.nodes) {
    armed_node a;
    a.id = n.id;
    a.meta.group = n.group;
    a.meta.est_bytes = n.est_bytes;
    s.armed.emplace(n.store, a);
  }
}

void profile_alias(const matrix_store* result, const matrix_store* node) {
  if (result == nullptr || node == nullptr || result == node) return;
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  if (auto it = s.armed.find(node); it != s.armed.end())
    s.armed.emplace(result, it->second);
}

int profile_node_id(const matrix_store* s, plan_node_meta* meta) {
  profile_state& st = state();
  mutex_lock lock(st.prof_mtx);
  auto it = st.armed.find(s);
  if (it == st.armed.end()) return -1;
  if (meta != nullptr) *meta = it->second.meta;
  return it->second.id;
}

std::uint64_t profile_record(pass_profile&& p) {
  // Read config before locking: a first-ever conf() call runs lazy init,
  // which may arm the incident monitor — including a thread join on
  // re-arm, which must never run while holding prof_mtx.
  std::size_t cap = conf().obs_profile_history;
  if (cap < 1) cap = 1;
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  p.seq = ++s.pass_seq;
  const std::uint64_t seq = p.seq;
  s.history.push_back(std::move(p));
  while (s.history.size() > cap) s.history.pop_front();
  return seq;
}

std::uint64_t profile_pass_seq() {
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  return s.pass_seq;
}

std::vector<pass_profile> profile_history() {
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  return {s.history.begin(), s.history.end()};
}

std::string profile_history_json() {
  std::vector<pass_profile> h = profile_history();
  std::string out = "[";
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (i > 0) out += ",\n ";
    out += h[i].to_json();
  }
  out += "]";
  return out;
}

void profile_clear() {
  profile_state& s = state();
  mutex_lock lock(s.prof_mtx);
  s.armed.clear();
  s.history.clear();
  s.pass_seq = 0;
}

namespace {

/// Shared implementation of explain_analyze_{json,dot}: profile one
/// materialization and build both renderings.
void run_analysis(const std::vector<matrix_store::ptr>& targets, storage st,
                  std::string& json_out, std::string& dot_out) {
  // Restore the caller's setting on every exit: a pass that throws
  // (overload, timeout, I/O) must not leave profiling on for the process.
  struct restore_profiling {
    bool was_on = profile_on();
    ~restore_profiling() { set_profile_enabled(was_on); }
  } restore;
  set_profile_enabled(true);
  const std::uint64_t seq0 = profile_pass_seq();
  // The plan must be captured before materialization collapses the DAG.
  plan_summary plan = summarize(targets);
  const std::string plan_json = explain_json(targets);
  const std::uint64_t t0 = now_ns();
  exec::materialize(targets, st);
  const std::uint64_t wall_ns = now_ns() - t0;

  std::vector<pass_profile> passes;
  for (pass_profile& p : profile_history())
    if (p.seq > seq0) passes.push_back(std::move(p));

  // Per-node totals across passes, indexed by plan id.
  std::vector<node_profile> totals(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const plan_node& n = plan.nodes[i];
    totals[i].id = n.id;
    totals[i].op = n.op;
    totals[i].sink = n.sink;
    totals[i].leaf = n.leaf;
    totals[i].group = n.group;
    totals[i].est_bytes = n.est_bytes;
  }
  for (const pass_profile& p : passes) {
    for (const node_profile& n : p.nodes) {
      if (n.id < 0 || static_cast<std::size_t>(n.id) >= totals.size())
        continue;
      totals[static_cast<std::size_t>(n.id)] += n;
    }
  }

  json_out = "{\n\"plan\": ";
  json_out += plan_json;
  append(json_out, ",\n\"wall_ns\": %" PRIu64 ",\n\"passes\": [", wall_ns);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) json_out += ",\n ";
    json_out += passes[i].to_json();
  }
  json_out += "],\n\"totals\": [\n";
  for (std::size_t i = 0; i < totals.size(); ++i) {
    json_out += "  ";
    append_node(json_out, totals[i]);
    if (i + 1 < totals.size()) json_out += ",";
    json_out += "\n";
  }
  json_out += "]\n}";

  // Annotated dot: the plan shape with measured totals in the labels.
  dot_out = "digraph flashr_explain_analyze {\n  rankdir=BT;\n";
  for (const plan_node& n : plan.nodes) {
    const node_profile& t = totals[static_cast<std::size_t>(n.id)];
    append(dot_out,
           "  n%d [label=\"%d: %s\\n%zux%zu est %zu B\\nkernel %.3f ms  copy "
           "%.3f ms  io %.3f ms\\nparts %" PRIu64 " chunks %" PRIu64
           " bytes %" PRIu64 "\"%s];\n",
           n.id, n.id, n.op, n.nrow, n.ncol, n.est_bytes,
           static_cast<double>(t.kernel_ns) / 1e6,
           static_cast<double>(t.copy_ns) / 1e6,
           static_cast<double>(t.io_wait_ns) / 1e6, t.partitions, t.chunks,
           t.bytes, n.leaf ? ", shape=box" : "");
    for (int c : n.children) append(dot_out, "  n%d -> n%d;\n", c, n.id);
  }
  dot_out += "}\n";
}

}  // namespace

std::string explain_analyze_json(const std::vector<matrix_store::ptr>& targets,
                                 storage st) {
  std::string json;
  std::string dot;
  run_analysis(targets, st, json, dot);
  return json;
}

std::string explain_analyze_dot(const std::vector<matrix_store::ptr>& targets,
                                storage st) {
  std::string json;
  std::string dot;
  run_analysis(targets, st, json, dot);
  return dot;
}

}  // namespace flashr::obs
