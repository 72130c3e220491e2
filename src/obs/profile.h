// Per-node pass profiling (the "actuals" side of explain): EXPLAIN ANALYZE
// for the materialization engine.
//
// When profiling is enabled, exec::materialize arms a map from every store
// in the pending DAG to its deterministic DFS plan id (the same ids
// explain_json() prints — obs/explain.h summarize()). Each pass fills one
// node_profile per plan node: every worker counts into its own
// node_counters (kernel, copy and I/O-wait ns, partitions, rows, bytes,
// Pcache chunks) and adds them in once, when it finishes; the pass_profile
// is pushed into a bounded history ring here. Every time a node gets is
// the interval of one obs::probe (obs/trace.h), the same two clock reads
// the trace shows as that site's span.
//
// explain_analyze_json() ties the two halves together: capture the plan,
// materialize with profiling on, then emit plan + per-pass actuals +
// per-node totals.
//
// This is the one place that decides what a DAG node's time is: the
// sampling profiler (obs/sampler.h) names stacks, not nodes.
//
// Disabled (the default), the whole layer costs one relaxed load per
// materialization; each instrumented exec site then tests a per-pass bool.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "matrix/matrix_store.h"

namespace flashr::obs {

namespace detail {
extern std::atomic<bool> g_profile_on;
}  // namespace detail

/// Whether per-node pass profiles are being collected.
inline bool profile_on() {
  return detail::g_profile_on.load(std::memory_order_relaxed);
}

void set_profile_enabled(bool on);

/// What a pass measured for one DAG node. Workers count into their own
/// copies; += merges them into the pass's node_profile, and sums passes
/// into explain_analyze()'s per-node totals.
struct node_counters {
  std::uint64_t kernel_ns = 0;    ///< kernel/generate/sink-accumulate time
  std::uint64_t copy_ns = 0;      ///< chunk-copy time (staging/output moves)
  std::uint64_t io_wait_ns = 0;   ///< worker time blocked on this leaf's I/O
  std::uint64_t partitions = 0;   ///< partitions this node was evaluated in
  std::uint64_t rows = 0;         ///< rows produced/consumed
  std::uint64_t bytes = 0;        ///< bytes produced (or read, for leaves)
  std::uint64_t chunks = 0;       ///< Pcache chunk evaluations

  node_counters& operator+=(const node_counters& o);
};

/// Measured actuals of one DAG node over one pass. `id` is the plan's DFS
/// node id, or -1 when the store was not part of the armed plan (profiling
/// enabled without an armed materialization).
struct node_profile : node_counters {
  int id = -1;
  const char* op = "?";  ///< static storage (node_kind_name / store label)
  bool sink = false;
  bool leaf = false;
  int group = -1;                 ///< fusion group from the armed plan
  std::uint64_t est_bytes = 0;    ///< planned size, from the armed plan
};

/// One materialization pass, merged across workers.
struct pass_profile {
  std::uint64_t seq = 0;  ///< global pass sequence number (assigned on record)
  const char* mode = "?";
  std::size_t chunk_rows = 0;
  int threads = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t io_wait_ns = 0;  ///< sum of per-node io_wait_ns
  /// Degradation-ladder steps the governor took before this pass was
  /// admitted ("depth:32->16", "chunk:0->4096", "mode:mem_fuse->eager");
  /// empty when the pass ran at full configuration.
  std::vector<std::string> degrade;
  std::vector<node_profile> nodes;

  std::string to_json() const;
};

// --- exec-side hooks ---------------------------------------------------------

/// Map every store of the pending DAG beneath `targets` to its DFS plan id
/// and metadata (called by exec::materialize when profile_on()). Replaces
/// the previous armed plan.
void profile_begin(const std::vector<matrix_store::ptr>& targets);

/// After a node's result store is assigned, alias the result to the node's
/// plan id so later (eager-mode) passes that see the result as a leaf keep
/// attributing to the original node.
void profile_alias(const matrix_store* result, const matrix_store* node);

/// Plan id of a resolved store under the armed plan; -1 when unknown.
/// `meta`, when non-null, receives the armed plan's group/est_bytes.
struct plan_node_meta {
  int group = -1;
  std::uint64_t est_bytes = 0;
};
int profile_node_id(const matrix_store* s, plan_node_meta* meta = nullptr);

/// Push a finished pass into the history ring; assigns and returns its seq.
/// The ring keeps the most recent conf().obs_profile_history passes.
std::uint64_t profile_record(pass_profile&& p);

/// Sequence number of the most recently recorded pass (0 = none yet).
std::uint64_t profile_pass_seq();

/// Snapshot of the history ring, oldest first.
std::vector<pass_profile> profile_history();

/// The history ring as a JSON array (incident bundles embed it).
std::string profile_history_json();

/// Drop the history ring and the armed plan (tests).
void profile_clear();

// --- EXPLAIN ANALYZE ---------------------------------------------------------

/// Materialize `targets` with profiling enabled and return
/// {"plan": ..., "wall_ns": ..., "passes": [...], "totals": [...]}: the
/// estimated plan next to measured per-node actuals, keyed by the same DFS
/// node ids. Profiling is restored to its previous setting afterwards, also
/// when the materialization throws.
std::string explain_analyze_json(const std::vector<matrix_store::ptr>& targets,
                                 storage st = storage::in_mem);

/// Same run, returning the annotated Graphviz dot (plan shape + per-node
/// measured totals in the labels).
std::string explain_analyze_dot(const std::vector<matrix_store::ptr>& targets,
                                storage st = storage::in_mem);

}  // namespace flashr::obs
