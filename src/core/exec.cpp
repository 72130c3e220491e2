#include "core/exec.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/error.h"
#include "common/log.h"
#include "common/thread_safety.h"
#include "common/timer.h"
#include "core/governor.h"
#include "core/kernels.h"
#include "core/prefetch_pipeline.h"
#include "core/validate.h"
#include "core/virtual_store.h"
#include "io/async_io.h"
#include "matrix/em_store.h"
#include "matrix/generated_store.h"
#include "matrix/mem_store.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace flashr::exec {

namespace {

/// Follow a store through its materialized result, if any.
const matrix_store* resolve(const matrix_store* s) {
  if (s->kind() == store_kind::virt) {
    auto* v = static_cast<const virtual_store*>(s);
    if (auto r = v->result()) {
      // Results are physical; one level of indirection suffices.
      return resolve(r.get());
    }
  }
  return s;
}

/// Whether a (resolved) store still needs computing.
bool is_pending(const matrix_store* s) {
  return resolve(s)->kind() == store_kind::virt;
}

// ---------------------------------------------------------------------------
// DAG collection
// ---------------------------------------------------------------------------

/// One node of a pass's plan. collect() resolves the DAG once into these,
/// indexed by dense id, so the chunk loop never resolves a store, hashes a
/// pointer or touches a shared_ptr.
struct plan_node {
  /// The resolved store: a physical leaf or a pending virtual node.
  const matrix_store* store = nullptr;
  store_kind kind = store_kind::virt;
  bool sink = false;
  /// The node's label: node_kind_name() of a virtual node, "mem", "em" or
  /// "generated" for a leaf. Names its probe's span and its profile entry.
  const char* op = "?";
  /// Edges from collected parents, +1 for a tall output's writer: the
  /// node's chunk buffer is recycled when this many uses have passed.
  int consumers = 0;
  /// The children's ids: dag_info::child_ids[first_child, +num_children).
  int first_child = 0;
  int num_children = 0;
};

struct dag_info {
  /// All pending virtual nodes, topologically ordered (children first).
  std::vector<virtual_store*> order;
  /// The plan: every leaf and pending virtual node (sinks included), by
  /// dense id. Read-only during the pass.
  std::vector<plan_node> nodes;
  std::vector<int> child_ids;
  /// Dense id of each resolved store; for collect() and per-partition or
  /// per-pass lookups only — the chunk loop works on ids.
  std::unordered_map<const matrix_store*, int> ids;

  int id_of(const matrix_store* s) const {
    auto it = ids.find(s);
    FLASHR_ASSERT(it != ids.end(), "node without a chunk id");
    return it->second;
  }
  const int* children_of(int id) const {
    return child_ids.data() + nodes[static_cast<std::size_t>(id)].first_child;
  }
  /// Partition-aligned nodes whose data must be written out (targets and
  /// set.cache'd intermediates), and their ids.
  std::vector<virtual_store*> tall_outputs;
  std::vector<int> tall_ids;
  /// Requested (as opposed to cache-flag-only) tall outputs: these honour
  /// the caller's storage; cache-only nodes use their own cache_storage.
  std::unordered_set<const virtual_store*> requested_talls;
  /// Sink targets, and their ids.
  std::vector<virtual_store*> sinks;
  std::vector<int> sink_ids;
  /// The shared partition space of the DAG.
  part_geom space{0, 1, 1};
  bool space_set = false;
  /// Distinct external-memory leaves (for prefetching).
  std::vector<const em_readable*> em_leaves;
  std::size_t max_ncol = 1;
  /// Widest element in the DAG (bytes); sizes Pcache chunks so an all-i32
  /// DAG gets twice the rows of an f64 one instead of assuming 8 B.
  std::size_t max_elem = 1;
  bool has_cum = false;
};

void note_space(dag_info& dag, const matrix_store* s) {
  if (!dag.space_set) {
    dag.space = part_geom{s->nrow(), s->ncol(), s->geom().part_rows};
    dag.space_set = true;
  } else {
    FLASHR_CHECK_SHAPE(
        dag.space.nrow == s->nrow() &&
            dag.space.part_rows == s->geom().part_rows,
        "matrices in one DAG must share the partition dimension");
  }
  dag.max_ncol = std::max(dag.max_ncol, s->ncol());
  dag.max_elem = std::max(dag.max_elem, s->elem_size());
}

/// Give a resolved store its dense id and, for a pending virtual node, its
/// subtree (children first, so `order` is topological).
void collect_node(dag_info& dag, const matrix_store* r) {
  const auto id = static_cast<int>(dag.nodes.size());
  if (!dag.ids.emplace(r, id).second) return;
  dag.nodes.push_back(plan_node{r, r->kind()});
  plan_node& n = dag.nodes.back();
  if (r->kind() != store_kind::virt) {
    // Leaf in the tall space.
    note_space(dag, r);
    n.op = r->kind() == store_kind::mem   ? "mem"
           : r->kind() == store_kind::ext ? "em"
                                          : "generated";
    if (r->kind() == store_kind::ext)
      dag.em_leaves.push_back(static_cast<const em_readable*>(r));
    return;
  }
  auto* v = const_cast<virtual_store*>(static_cast<const virtual_store*>(r));
  n.sink = v->is_sink_node();
  n.op = node_kind_name(v->op().kind);
  for (const auto& child : v->children())
    collect_node(dag, resolve(child.get()));
  if (!v->is_sink_node()) note_space(dag, v);
  if (v->op().kind == node_kind::cum_col) dag.has_cum = true;
  dag.order.push_back(v);
}

dag_info collect(const std::vector<matrix_store::ptr>& targets) {
  dag_info dag;
  std::unordered_set<const virtual_store*> outputs_seen;
  for (const auto& t : targets) {
    if (!t || !is_pending(t.get())) continue;
    collect_node(dag, resolve(t.get()));
  }
  // Edges: each node's children ids, and every child's consumer count.
  for (const virtual_store* v : dag.order) {
    plan_node& n = dag.nodes[static_cast<std::size_t>(dag.id_of(v))];
    n.first_child = static_cast<int>(dag.child_ids.size());
    n.num_children = static_cast<int>(v->children().size());
    for (const auto& child : v->children()) {
      const int c = dag.id_of(resolve(child.get()));
      plan_node& cn = dag.nodes[static_cast<std::size_t>(c)];
      FLASHR_CHECK(!cn.sink,
                   "internal: sink used as DAG input (materialize it first)");
      dag.child_ids.push_back(c);
      ++cn.consumers;
    }
  }
  // Classify outputs: requested targets plus cache-flagged intermediates.
  auto add_output = [&](virtual_store* v) {
    if (!outputs_seen.insert(v).second) return;
    const int id = dag.id_of(v);
    if (v->is_sink_node()) {
      dag.sinks.push_back(v);
      dag.sink_ids.push_back(id);
    } else {
      dag.tall_outputs.push_back(v);
      dag.tall_ids.push_back(id);
      // The output writer consumes the node's chunks.
      ++dag.nodes[static_cast<std::size_t>(id)].consumers;
    }
  };
  for (const auto& t : targets) {
    if (!t || !is_pending(t.get())) continue;
    auto* v = static_cast<virtual_store*>(
        const_cast<matrix_store*>(resolve(t.get())));
    add_output(v);
    if (!v->is_sink_node()) dag.requested_talls.insert(v);
  }
  for (virtual_store* v : dag.order)
    if (v->cache_flag() && !v->has_result()) add_output(v);
  if (!dag.space_set && !dag.order.empty())
    throw_error("cannot infer the partition space of an empty DAG");
  return dag;
}

// ---------------------------------------------------------------------------
// Sink accumulation state
// ---------------------------------------------------------------------------

struct sink_desc {
  virtual_store* node = nullptr;
  std::size_t out_rows = 0;
  std::size_t out_cols = 0;
  /// Elements in a partial accumulator. Usually out_rows*out_cols, but the
  /// full aggregate carries one accumulator per input column until the
  /// final agg_finish so its fold order is chunk-size independent.
  std::size_t acc_elems = 0;
  scalar_type out_type = scalar_type::f64;
  agg_id merge_op = agg_id::sum;
};

sink_desc describe_sink(virtual_store* v) {
  sink_desc d;
  d.node = v;
  const genop& op = v->op();
  const matrix_store* a = resolve(v->children().at(0).get());
  switch (op.kind) {
    case node_kind::s_agg_full:
      d.out_rows = 1;
      d.out_cols = 1;
      d.out_type = a->type();
      d.merge_op = op.a;
      break;
    case node_kind::s_agg_col:
      d.out_rows = 1;
      d.out_cols = a->ncol();
      d.out_type = a->type();
      d.merge_op = op.a;
      break;
    case node_kind::s_tmm: {
      const matrix_store* b = resolve(v->children().at(1).get());
      d.out_rows = a->ncol();
      d.out_cols = b->ncol();
      d.out_type = a->type();
      d.merge_op = op.a;
      break;
    }
    case node_kind::s_groupby_row:
      d.out_rows = op.num_groups;
      d.out_cols = a->ncol();
      d.out_type = a->type();
      d.merge_op = op.a;
      break;
    case node_kind::s_count_groups:
      d.out_rows = op.num_groups;
      d.out_cols = 1;
      d.out_type = scalar_type::i64;
      d.merge_op = agg_id::sum;
      break;
    default:
      FLASHR_ASSERT(false, "not a sink");
  }
  d.acc_elems = d.out_rows * d.out_cols;
  if (op.kind == node_kind::s_agg_full) d.acc_elems = a->ncol();
  return d;
}

// ---------------------------------------------------------------------------
// Cumulative-op carry chains (§3.3, operation class j)
// ---------------------------------------------------------------------------

/// Internal unwind token: a peer worker hit an unrecoverable error and the
/// pass is cancelling. Thrown only inside a pass, caught at the worker's
/// top level, never escapes pass_runner.
struct pass_cancelled {};

/// One chain per cum_col node: the per-column running value at the end of
/// every partition, published in partition order. Workers block until the
/// carry of partition p-1 is available; sequential dynamic dispatch
/// guarantees some worker owns it, so the wait is bounded — unless the
/// owning worker died with the pass's first error, in which case cancel()
/// wakes every waiter and wait_for unwinds with pass_cancelled.
struct cum_chain {
  mutex mtx LOCK_RANK(cum_chain);
  /// Per partition, cols * elem_size bytes each.
  std::vector<std::vector<char>> carries GUARDED_BY(mtx);
  std::vector<char> ready GUARDED_BY(mtx);
  bool cancelled GUARDED_BY(mtx) = false;
  cond_var cv;

  void init(std::size_t num_parts, std::size_t bytes) {
    mutex_lock lock(mtx);
    carries.assign(num_parts, std::vector<char>(bytes));
    ready.assign(num_parts, 0);
  }
  void publish(std::size_t p, const char* data, std::size_t bytes) {
    {
      mutex_lock lock(mtx);
      std::memcpy(carries[p].data(), data, bytes);
      ready[p] = 1;
    }
    cv.notify_all();
  }
  void wait_for(std::size_t p, char* out, std::size_t bytes) {
    mutex_lock lock(mtx);
    while (ready[p] == 0 && !cancelled) cv.wait(lock);
    if (ready[p] == 0) throw pass_cancelled{};
    std::memcpy(out, carries[p].data(), bytes);
  }
  void cancel() {
    {
      mutex_lock lock(mtx);
      cancelled = true;
    }
    cv.notify_all();
  }
};

// ---------------------------------------------------------------------------
// The fused pass
// ---------------------------------------------------------------------------

struct pass_config {
  storage st = storage::in_mem;
  std::size_t chunk_rows = 0;  // 0 = whole partition (mem_fuse)
  /// Prefetch depth for this pass; -1 = the conf() default. The governor's
  /// degradation ladder shrinks this below the configured depth to fit the
  /// memory budget.
  long prefetch_depth = -1;
};

/// Per-materialize() resilience state, threaded through every pass of the
/// call: the deadline/watchdog limits and the degradation record.
struct pass_ctl {
  std::uint64_t pass_id = 0;     ///< global materialize() sequence number
  std::uint64_t start_ns = 0;
  std::uint64_t deadline_ms = 0; ///< effective (opts override or conf)
  std::uint64_t deadline_ns = 0; ///< absolute now_ns() instant; 0 = none
  std::uint64_t stall_ms = 0;    ///< conf().watchdog_stall_ms
  std::vector<std::string> degrade;  ///< ladder steps taken, in order
};

/// Ids for error payloads and the active-pass table.
std::atomic<std::uint64_t> g_pass_id{0};

/// Per-chunk evaluation state for one node. Entries live in a flat array
/// indexed by the node's dense id; `gen` marks which chunk the entry belongs
/// to, so the array never needs clearing between chunks.
struct chunk_buf {
  kern::view v;
  pool_buffer owned;
  int remaining = 0;
  std::uint64_t gen = 0;
};

/// A worker's LIFO free list of chunk buffers: §3.5.1's recycling without
/// the shared pool's mutex. A buffer released by its last consumer waits
/// here, and the next request of its size class — usually the consumer's
/// own output — takes back the most recently freed one while its lines are
/// still in cache. Only a miss reaches buffer_pool::global(). The list never
/// grows past the capacity reserved before the pass, so recycling allocates
/// nothing; a surplus buffer goes straight home. Destruction returns every
/// listed buffer to the pool, whether the pass succeeded or was cancelled.
/// Under the invariant validator a listed buffer is poisoned, and verified
/// when it is taken again or sent home, like one on the pool's free lists.
class chunk_free_list {
 public:
  chunk_free_list() = default;
  chunk_free_list(const chunk_free_list&) = delete;
  chunk_free_list& operator=(const chunk_free_list&) = delete;
  ~chunk_free_list() {
    for (const entry& e : free_) verify(e);
  }

  void reserve(std::size_t capacity) { free_.reserve(capacity); }

  pool_buffer take(std::size_t bytes) {
    const std::size_t size = buffer_pool::class_bytes(bytes);
    for (std::size_t i = free_.size(); i-- > 0;) {
      if (free_[i].buf.size() != size) continue;
      entry e = std::move(free_[i]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      verify(e);
      return std::move(e.buf);
    }
    return buffer_pool::global().get(bytes);
  }

  void give(pool_buffer&& b) noexcept {
    if (free_.size() == free_.capacity()) {
      b.release();
      return;
    }
    const bool poison = invariants_enabled();
    if (poison) poison_fill(b.data(), b.size());
    free_.push_back(entry{std::move(b), poison});
  }

 private:
  struct entry {
    pool_buffer buf;
    bool poisoned = false;
  };
  static void verify(const entry& e) {
    if (e.poisoned && invariants_enabled())
      poison_verify(e.buf.data(), e.buf.size());
  }
  std::vector<entry> free_;
};

class pass_runner {
 public:
  pass_runner(dag_info& dag, pass_config cfg, pass_ctl* ctl = nullptr)
      : dag_(dag), cfg_(cfg), ctl_(ctl) {
    allocate_outputs();
    init_cum_chains();
    prof_init();
    // Output stores (mem_store partitions) legitimately keep pool buffers
    // beyond the pass; everything acquired after this point must come home.
    pool_baseline_count_ = buffer_pool::global().outstanding_count();
  }

  void run();

 private:
  void allocate_outputs();
  void init_cum_chains();
  void merge_sinks();
  std::vector<char> make_sink_identity(const sink_desc& s) const;

  struct thread_ctx {
    int thread_idx = 0;
    std::vector<chunk_buf> chunk;   // indexed by dag node id
    std::uint64_t gen = 0;          // current chunk generation
    int live_owned = 0;             // owned buffers not yet recycled
    chunk_free_list free_bufs;      // this worker's recycled chunk buffers
    /// Identity casts aliased this pass; folded into the global count when
    /// the worker exits.
    std::uint64_t zero_copy = 0;
    /// Time this worker spent in prefetch_pipeline::pop(), its last pop
    /// included; folded into read_wait_ns_ when the worker exits.
    std::uint64_t read_wait_ns = 0;
    /// Per-sink partial accumulators.
    std::vector<std::vector<char>> sink_acc;
    /// This worker's profile counts, by id; handed to worker_prof_ when the
    /// worker exits. Empty unless profiling is on.
    std::vector<obs::node_counters> prof;
    /// Running carry of each cum node for the current partition, by id.
    std::vector<std::vector<char>> cum_carry;
    bool cum_has_carry = false;
    /// Current EM read buffers: (leaf, part) -> buffer.
    std::unordered_map<const em_readable*, pool_buffer> em_bufs;
    /// Every mem/ext leaf's view of the current partition, by id.
    std::vector<kern::view> part_view;
    /// Staging buffers for EM outputs of the current partition, parallel
    /// to dag_.tall_outputs.
    std::vector<pool_buffer> out_stage;
    /// Current chunk geometry.
    std::size_t part = 0;
    std::size_t part_row0 = 0;     // global row of partition start
    std::size_t part_rows = 0;     // rows in this partition
    std::size_t chunk_row0 = 0;    // chunk start, relative to partition
    std::size_t chunk_rows = 0;
  };

  void process_partition(thread_ctx& ctx);
  void process_chunk(thread_ctx& ctx);
  /// Set ctx.part_view for every mem/ext leaf of the current partition.
  void bind_partition_leaves(thread_ctx& ctx);
  /// The per-chunk path works on plan ids (dag_info::nodes) only.
  chunk_buf& ensure(thread_ctx& ctx, int id);
  void unref(thread_ctx& ctx, int id);
  void eval_virtual(thread_ctx& ctx, int id, chunk_buf& out);
  const matrix_store& store_of(int id) const {
    return *dag_.nodes[static_cast<std::size_t>(id)].store;
  }

  /// Worker dispatch loop (body of the pass; runs on every pool thread):
  /// claim the pipeline's completed partitions until it runs dry.
  void pipeline_worker(thread_ctx& ctx);
  void submit_sink_partials(thread_ctx& ctx);
  /// Build the pass's prefetch pipeline and start its read-ahead.
  void build_pipeline();
  /// Settle the pipeline and destroy it, folding its counters into the
  /// pass statistics; after this the window buffers are back in the pool.
  /// Safe to call on both the success and the cancellation path.
  void teardown_pipeline() noexcept;

  // --- Per-node profiling (obs/profile.h) ---------------------------------
  /// Resolve the pass's profile entries, one per dense dag id.
  void prof_init();
  /// Per-pass wrap-up: add every worker's counts into the entries and push
  /// the pass_profile into the history ring. Success path only.
  void record_profile(std::uint64_t wall_ns);
  /// The profile counter a probe adds node `id`'s interval to, or null
  /// when profiling is off.
  std::uint64_t* prof_ns(thread_ctx& ctx, int id,
                         std::uint64_t obs::node_counters::*field) const {
    return prof_ ? &(ctx.prof[static_cast<std::size_t>(id)].*field) : nullptr;
  }
  /// Count one chunk evaluation of node `id` (profiling on only).
  static void count_chunk(thread_ctx& ctx, int id, std::size_t rows,
                          std::size_t bytes) {
    obs::node_counters& c = ctx.prof[static_cast<std::size_t>(id)];
    c.rows += rows;
    c.bytes += bytes;
    ++c.chunks;
    if (ctx.chunk_row0 == 0) ++c.partitions;
  }

  // --- Cooperative cancellation -------------------------------------------
  /// First unrecoverable error wins: record it, raise the cancel flag, and
  /// wake any workers parked on a cumulative carry. Remaining workers skip
  /// their partitions and unwind; run() rethrows the recorded error after
  /// pending writes drain and every pool buffer is back.
  void fail(std::exception_ptr e) noexcept;
  bool cancelled() const { return cancel_.load(std::memory_order_acquire); }

  dag_info& dag_;
  pass_config cfg_;
  /// Resilience state of the enclosing materialize(); null in tests that
  /// drive passes directly. Read-only here except for profile recording.
  pass_ctl* ctl_ = nullptr;
  std::atomic<bool> cancel_{false};
  mutex error_mutex_ LOCK_RANK(pass_error);
  std::exception_ptr pass_error_ GUARDED_BY(error_mutex_);
  /// Output stores, parallel to dag_.tall_outputs.
  std::vector<matrix_store::ptr> out_stores_;
  std::vector<sink_desc> sinks_;
  /// One chain per cum node, by id; populated before the pass, then
  /// read-only (each chain carries its own mutex).
  std::unordered_map<int, cum_chain> cum_chains_;
  mutex acc_mutex_ LOCK_RANK(pass_acc);
  /// Sink partials are produced per PARTITION and merged in ascending
  /// partition order: neither which worker claimed a partition, the claim
  /// order, nor the prefetch depth can change the reduction's floating-
  /// point association — so a degraded run is bit-identical to the
  /// undegraded one (DESIGN.md §11.2). Out-of-order completions park in
  /// pending_sink_parts_ (bounded by the claim window) until the frontier
  /// reaches them.
  std::vector<std::vector<char>> sink_total_ GUARDED_BY(acc_mutex_);
  bool sink_total_init_ GUARDED_BY(acc_mutex_) = false;
  std::size_t next_merge_part_ GUARDED_BY(acc_mutex_) = 0;
  std::map<std::size_t, std::vector<std::vector<char>>> pending_sink_parts_
      GUARDED_BY(acc_mutex_);
  /// Pool buffers outstanding after output allocation; the post-pass audit
  /// (validate::audit_pool) asserts the pass returned to this baseline.
  std::size_t pool_baseline_count_ = 0;
  /// Profiling state, armed at construction when obs::profile_on():
  /// prof_nodes_ holds one entry per dense id, untouched until the workers
  /// join; each worker leaves its counts in its own worker_prof_ slot.
  bool prof_ = false;
  std::vector<obs::node_profile> prof_nodes_;
  std::vector<std::vector<obs::node_counters>> worker_prof_;
  /// Pool workers that run the pass: no more than it has partitions.
  int workers_ = 1;
  /// The pass's read wait: every worker's time in pop(), summed as the
  /// workers exit. Feeds pass_stats::read_wait_ns and the pass profile's
  /// io_wait_ns alike.
  std::atomic<std::uint64_t> read_wait_ns_{0};
  /// The pass's prefetch pipeline. Built before workers start, read-only
  /// during the pass (it is internally synchronized), destroyed by
  /// teardown_pipeline().
  std::optional<prefetch_pipeline> pipeline_;
};

/// Set while a materialize() call is in flight. The process runs one at a
/// time: g_stats_acc below is reset by every call, and thread_pool::run_all
/// takes one job at a time.
std::atomic<bool> g_materializing{false};

/// Accumulates pipeline/pass counters across the passes of one
/// materialize() call (eager mode runs several). Written between passes on
/// the driver thread only (g_materializing admits one call at a time).
struct pass_stats_acc {
  std::size_t passes = 0;
  std::size_t sequential_passes = 0;
  std::uint64_t read_wait_ns = 0;
  std::uint64_t occupancy_sum = 0;
  std::uint64_t pops = 0;
  std::size_t reads_issued = 0;
};
pass_stats_acc g_stats_acc;
/// Lifetime count of zero-copy chunk evaluations. Written by workers
/// (relaxed), bracketed by materialize() like io_stats so last_pass_stats()
/// reports only the current call's share.
std::atomic<std::uint64_t> g_zero_copy_total{0};
/// Snapshot published by the last materialize(); guarded so a monitoring
/// thread (or an obs probe) can read it concurrently with a running pass.
mutex g_stats_mutex LOCK_RANK(pass_stats);
pass_stats g_last_stats GUARDED_BY(g_stats_mutex);

/// Live materializations (incident bundles). The table owns COPIES of the
/// interesting pass_ctl fields, updated at registration and at every degrade
/// step, so readers never touch a running pass's own state.
struct active_pass {
  std::uint64_t pass_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t deadline_ms = 0;
  exec_mode mode = exec_mode::cache_fuse;
  std::string degrade;  ///< comma-joined ladder steps so far
};
std::vector<active_pass> g_active GUARDED_BY(g_stats_mutex);

void active_pass_register(std::uint64_t pass_id, std::uint64_t start_ns,
                          std::uint64_t deadline_ms) {
  active_pass p;
  p.pass_id = pass_id;
  p.start_ns = start_ns;
  p.deadline_ms = deadline_ms;
  p.mode = conf().mode;
  mutex_lock lock(g_stats_mutex);
  g_active.push_back(std::move(p));
}

void active_pass_degrade(std::uint64_t pass_id, const std::string& step) {
  mutex_lock lock(g_stats_mutex);
  for (active_pass& p : g_active) {
    if (p.pass_id != pass_id) continue;
    if (!p.degrade.empty()) p.degrade += ',';
    p.degrade += step;
    return;
  }
}

/// Expose every pass_stats field through the metrics registry as probes:
/// g_last_stats stays the single source of truth and the registry reads it
/// under the same mutex last_pass_stats() uses.
void register_pass_probes() {
  auto& reg = obs::metrics_registry::global();
  auto probe = [&reg](const char* name, auto pass_stats::*field) {
    reg.register_probe(name, [field] {
      mutex_lock lock(g_stats_mutex);
      return static_cast<std::uint64_t>(g_last_stats.*field);
    });
  };
#define FLASHR_PASS_STATS_PROBE(f) probe("pass." #f, &pass_stats::f);
  FLASHR_PASS_STATS_FIELDS(FLASHR_PASS_STATS_PROBE)
#undef FLASHR_PASS_STATS_PROBE
}

void pass_runner::allocate_outputs() {
  for (virtual_store* v : dag_.tall_outputs) {
    const part_geom& g = v->geom();
    const storage st =
        dag_.requested_talls.count(v) ? cfg_.st : v->cache_storage();
    if (st == storage::ext_mem)
      out_stores_.push_back(
          em_store::create(g.nrow, g.ncol, v->type(), g.part_rows));
    else
      out_stores_.push_back(
          mem_store::create(g.nrow, g.ncol, v->type(), g.part_rows));
  }
  for (virtual_store* v : dag_.sinks) sinks_.push_back(describe_sink(v));
}

std::vector<char> pass_runner::make_sink_identity(const sink_desc& s) const {
  std::vector<char> buf(s.acc_elems * type_size(s.out_type));
  if (s.node->op().kind == node_kind::s_count_groups)
    std::memset(buf.data(), 0, buf.size());
  else
    kern::agg_identity(s.out_type, s.merge_op, buf.data(), s.acc_elems);
  return buf;
}

/// Called at the end of every processed partition: park this partition's
/// sink partials and advance the in-order merge frontier as far as it goes.
/// The worker's accumulators are reset to the identity for its next claim.
void pass_runner::submit_sink_partials(thread_ctx& ctx) {
  if (sinks_.empty()) return;
  {
    mutex_lock lock(acc_mutex_);
    pending_sink_parts_.emplace(ctx.part, std::move(ctx.sink_acc));
    while (!pending_sink_parts_.empty() &&
           pending_sink_parts_.begin()->first == next_merge_part_) {
      auto& partial = pending_sink_parts_.begin()->second;
      if (!sink_total_init_) {
        sink_total_ = std::move(partial);
        sink_total_init_ = true;
      } else {
        for (std::size_t s = 0; s < sinks_.size(); ++s) {
          const sink_desc& d = sinks_[s];
          if (d.node->op().kind == node_kind::s_count_groups) {
            auto* a = reinterpret_cast<std::int64_t*>(sink_total_[s].data());
            const auto* b =
                reinterpret_cast<const std::int64_t*>(partial[s].data());
            for (std::size_t i = 0; i < d.acc_elems; ++i) a[i] += b[i];
          } else {
            kern::agg_merge(d.out_type, d.merge_op, sink_total_[s].data(),
                            partial[s].data(), d.acc_elems);
          }
        }
      }
      pending_sink_parts_.erase(pending_sink_parts_.begin());
      ++next_merge_part_;
    }
  }
  ctx.sink_acc.clear();
  for (const sink_desc& s : sinks_)
    ctx.sink_acc.push_back(make_sink_identity(s));
}

void pass_runner::init_cum_chains() {
  if (!dag_.has_cum) return;
  for (virtual_store* v : dag_.order) {
    if (v->op().kind != node_kind::cum_col) continue;
    cum_chains_[dag_.id_of(v)].init(dag_.space.num_parts(),
                                    v->ncol() * type_size(v->type()));
  }
}

std::size_t chunk_rows_for(const dag_info& dag) {
  return pcache_rows(dag.max_ncol, dag.space.part_rows, dag.max_elem);
}

void pass_runner::prof_init() {
  prof_ = obs::profile_on();
  if (!prof_) return;
  prof_nodes_.resize(dag_.nodes.size());
  for (std::size_t id = 0; id < dag_.nodes.size(); ++id) {
    const plan_node& pn = dag_.nodes[id];
    obs::node_profile& n = prof_nodes_[id];
    obs::plan_node_meta meta;
    n.id = obs::profile_node_id(pn.store, &meta);
    n.op = pn.op;
    n.sink = pn.sink;
    n.leaf = pn.kind != store_kind::virt;
    n.group = meta.group;
    n.est_bytes = meta.est_bytes;
  }
}

void pass_runner::record_profile(std::uint64_t wall_ns) {
  obs::pass_profile p;
  p.mode = exec_mode_name(conf().mode);
  p.chunk_rows = cfg_.chunk_rows;
  p.threads = workers_;
  p.wall_ns = wall_ns;
  // Ladder steps of the whole materialize() so far: a degraded eager pass
  // shows the mode fallback that created it, not just its own rungs.
  if (ctl_ != nullptr) p.degrade = ctl_->degrade;
  for (const std::vector<obs::node_counters>& w : worker_prof_)
    for (std::size_t id = 0; id < w.size(); ++id) prof_nodes_[id] += w[id];
  p.io_wait_ns = read_wait_ns_.load(std::memory_order_relaxed);
  p.nodes = std::move(prof_nodes_);
  obs::profile_record(std::move(p));
}

void pass_runner::fail(std::exception_ptr e) noexcept {
  {
    mutex_lock lock(error_mutex_);
    if (!pass_error_) pass_error_ = e;
  }
  cancel_.store(true, std::memory_order_release);
  for (auto& [node, chain] : cum_chains_) {
    (void)node;
    chain.cancel();
  }
  // Wake workers parked in pop(); the pipeline stops refilling, in-flight
  // reads settle in teardown_pipeline().
  if (pipeline_) pipeline_->cancel();
}

void pass_runner::build_pipeline() {
  // Read-ahead across the whole pass: a read in flight and a landed
  // partition per I/O thread — unless the governor's degradation ladder
  // pinned a smaller window.
  const std::size_t depth = static_cast<std::size_t>(
      cfg_.prefetch_depth >= 0 ? cfg_.prefetch_depth
                               : default_prefetch_depth());
  // Cumulative ops need strictly increasing partition dispatch: under
  // completion-order claims, every worker could end up holding a partition
  // later than an unclaimed one and block on its carry — so cum DAGs claim
  // in partition order (reads still overlap; only claims are ordered).
  pipeline_.emplace(dag_.em_leaves, dag_.space.num_parts(), depth,
                    /*sequential=*/dag_.has_cum);
}

void pass_runner::teardown_pipeline() noexcept {
  if (!pipeline_) return;
  pipeline_->settle();
  const prefetch_pipeline::stats s = pipeline_->pipeline_stats();
  g_stats_acc.occupancy_sum += s.occupancy_sum;
  g_stats_acc.pops += s.pops;
  g_stats_acc.reads_issued += s.reads_issued;
  // Destruction releases completed-but-unclaimed window buffers; with all
  // reads settled nothing can still write into them.
  pipeline_.reset();
}

void pass_runner::pipeline_worker(thread_ctx& ctx) {
  prefetch_pipeline::slot s;
  while (!cancelled()) {
    const std::uint64_t waited0 = ctx.read_wait_ns;
    bool got;
    {
      // Blocked in pop() == waiting for prefetched reads, whether on the
      // window's condition or running a read itself (async_io::help_one):
      // the sampler keys samples landing here io_wait, and the interval is
      // the pass's read wait.
      obs::probe pop_probe({.name = "prefetch.pop",
                            .acc = &ctx.read_wait_ns,
                            .wait = obs::sample_state::io_wait});
      got = pipeline_->pop(s);
    }
    if (!got) break;
    if (prof_ && !s.bufs.empty()) {
      // Attribute the blocked-in-pop() time evenly across the partition's
      // EM leaves; bytes/rows are exact per leaf.
      const std::uint64_t share =
          (ctx.read_wait_ns - waited0) / s.bufs.size();
      const std::size_t prows = dag_.space.rows_in_part(s.part);
      for (const auto& [leaf, buf] : s.bufs) {
        obs::node_counters& c =
            ctx.prof[static_cast<std::size_t>(dag_.id_of(leaf))];
        c.io_wait_ns += share;
        ++c.partitions;
        c.rows += prows;
        c.bytes += buf.size();
      }
    }
    ctx.em_bufs = std::move(s.bufs);
    ctx.part = s.part;
    ctx.part_row0 = dag_.space.part_row_begin(s.part);
    ctx.part_rows = dag_.space.rows_in_part(s.part);
    process_partition(ctx);
    ctx.em_bufs.clear();
    submit_sink_partials(ctx);
  }
}

void pass_runner::run() {
  // The pass span and the profile's wall time are one interval.
  std::uint64_t wall_ns = 0;
  obs::probe pass_probe({.name = "pass",
                         .arg = dag_.order.size(),
                         .acc = prof_ ? &wall_ns : nullptr});
  thread_pool& pool = thread_pool::global();
  // A worker past the partition count would find nothing to claim and
  // only join, so it does not run the pass: a one-partition pass runs on
  // the caller alone and wakes no worker.
  workers_ = static_cast<int>(std::clamp<std::size_t>(
      dag_.space.num_parts(), 1, static_cast<std::size_t>(pool.size())));
  build_pipeline();
  if (prof_) worker_prof_.resize(static_cast<std::size_t>(workers_));
  ++g_stats_acc.passes;
  if (pipeline_->sequential()) ++g_stats_acc.sequential_passes;

  // Supervise the pass: pipeline_ is read-only from here until teardown,
  // so the watchdog's probe can read it lock-free; fail() is the same
  // cooperative cancellation any worker error takes, so a trip drains and
  // audits exactly like an I/O failure. The watch ends before
  // teardown_pipeline() — settle() must wait out an injected stall anyway
  // (zero-leak: the read still owns its buffer until the completion lands).
  std::uint64_t wtoken = 0;
  if (ctl_ != nullptr) {
    const std::uint64_t stall_ns = ctl_->stall_ms * 1000000ull;
    wtoken = pass_watchdog::global().watch(
        ctl_->pass_id, ctl_->deadline_ns, ctl_->deadline_ms, stall_ns,
        ctl_->stall_ms,
        [this] {
          const prefetch_pipeline::io_progress q = pipeline_->progress();
          return pass_watchdog::io_progress{q.inflight_reads,
                                            q.last_completion_ns};
        },
        [this](std::exception_ptr e) { fail(e); });
  }

  const auto worker = [&](int thread_idx) {
    thread_ctx ctx;
    ctx.thread_idx = thread_idx;
    const std::size_t num_ids = dag_.nodes.size();
    ctx.chunk.resize(num_ids);
    ctx.part_view.resize(num_ids);
    ctx.out_stage.resize(dag_.tall_outputs.size());
    // A node holds at most one chunk buffer at a time; twice the plan size
    // leaves room for a short last chunk's smaller size class as well.
    ctx.free_bufs.reserve(2 * num_ids);
    ctx.cum_carry.resize(num_ids);
    if (prof_) ctx.prof.resize(num_ids);
    // Sink partials start at the aggregation identity; they are re-armed
    // after every partition by submit_sink_partials().
    ctx.sink_acc.reserve(sinks_.size());
    for (const sink_desc& s : sinks_)
      ctx.sink_acc.push_back(make_sink_identity(s));

    try {
      pipeline_worker(ctx);
    } catch (const pass_cancelled&) {
      // A peer recorded the pass error; this worker unwound cooperatively.
    } catch (const pipeline_cancelled&) {
      // Likewise: fail() cancelled the pipeline while this worker was
      // blocked in (or about to call) pop().
    } catch (...) {
      fail(std::current_exception());
    }
    // Leave this worker's counts in its own slot; record_profile() adds
    // them up after run_all joins every worker.
    if (prof_)
      worker_prof_[static_cast<std::size_t>(thread_idx)] = std::move(ctx.prof);
    if (ctx.zero_copy != 0)
      g_zero_copy_total.fetch_add(ctx.zero_copy, std::memory_order_relaxed);
    read_wait_ns_.fetch_add(ctx.read_wait_ns, std::memory_order_relaxed);
    // ctx destruction returns every worker-held pool buffer (chunk bufs,
    // the free list, EM read buffers, staged outputs) whether the pass
    // succeeded or not.
    // Sink partials were already submitted per partition; whatever is left
    // in ctx.sink_acc is an untouched identity (or a cancelled partition's
    // partial, discarded with the pass).
  };
  pool.run_all(worker, workers_);
  g_stats_acc.read_wait_ns += read_wait_ns_.load(std::memory_order_relaxed);

  // All workers joined. End supervision BEFORE teardown destroys the
  // pipeline the watchdog's probe reads; unwatch() returns only once no
  // callback can still be running.
  if (wtoken != 0) pass_watchdog::global().unwatch(wtoken);

  // Settle in-flight window reads and destroy the pipeline on BOTH paths,
  // so the pool audits below see every read-ahead buffer home regardless of
  // how the pass ended.
  teardown_pipeline();

  if (cancelled()) {
    // Writes submitted before the failure still hold pool buffers; wait for
    // them so the pool provably returns to its pre-pass state. The original
    // error outranks any deferred write error surfaced by the drain.
    try {
      em_store::drain_writes();
    } catch (...) {
    }
    validate::audit_pool(buffer_pool::global(), pool_baseline_count_);
    std::exception_ptr e;
    {
      mutex_lock lock(error_mutex_);
      e = pass_error_;
    }
    FLASHR_ASSERT(e != nullptr, "cancelled pass without a recorded error");
    std::rethrow_exception(e);
  }

  // Wait for asynchronous partition writes (cheap no-op when no output went
  // to SSDs) so the pool audit sees every write buffer home, then audit
  // before merge_sinks allocates the persistent sink stores.
  em_store::drain_writes();
  validate::audit_pool(buffer_pool::global(), pool_baseline_count_);

  // Assign tall output stores to their nodes. Alias each result to its
  // node's plan id so eager-mode follow-up passes (which see the result as
  // a leaf) keep attributing costs to the original node.
  for (std::size_t i = 0; i < dag_.tall_outputs.size(); ++i) {
    dag_.tall_outputs[i]->set_result(out_stores_[i]);
    if (prof_)
      obs::profile_alias(out_stores_[i].get(), dag_.tall_outputs[i]);
  }
  merge_sinks();
  if (prof_) {
    pass_probe.stop();
    record_profile(wall_ns);
  }
}

void pass_runner::process_partition(thread_ctx& ctx) {
  obs::probe partition_probe({.name = "partition", .arg = ctx.part});
  // A peer may have failed while this worker was between partitions; bail
  // before fetching carries so we never block on a cancelled cum chain.
  if (cancelled()) throw pass_cancelled{};
  // Fetch incoming cumulative carries before the first chunk.
  ctx.cum_has_carry = false;
  if (dag_.has_cum) {
    for (auto& [id, chain] : cum_chains_) {
      const matrix_store& node = store_of(id);
      auto& carry = ctx.cum_carry[static_cast<std::size_t>(id)];
      carry.resize(node.ncol() * node.elem_size());
      if (ctx.part > 0) {
        // Parked on a predecessor's cumulative carry: lock wait.
        obs::probe carry_wait({.wait = obs::sample_state::lock_wait});
        chain.wait_for(ctx.part - 1, carry.data(), carry.size());
      }
    }
    ctx.cum_has_carry = ctx.part > 0;
  }

  // Staging buffers for outputs that land on SSDs.
  for (std::size_t i = 0; i < dag_.tall_outputs.size(); ++i) {
    virtual_store* v = dag_.tall_outputs[i];
    if (out_stores_[i]->kind() != store_kind::ext) continue;
    ctx.out_stage[i] =
        buffer_pool::global().get(v->geom().part_bytes(ctx.part, v->type()));
  }
  bind_partition_leaves(ctx);

  const std::size_t step =
      cfg_.chunk_rows == 0 ? ctx.part_rows : cfg_.chunk_rows;
  for (std::size_t r = 0; r < ctx.part_rows; r += step) {
    if (cancelled()) throw pass_cancelled{};
    ctx.chunk_row0 = r;
    ctx.chunk_rows = std::min(step, ctx.part_rows - r);
    process_chunk(ctx);
    ctx.cum_has_carry = true;  // after the first chunk, carries are live
  }

  // Flush outputs: each staged partition moves into its asynchronous write.
  for (std::size_t i = 0; i < dag_.tall_outputs.size(); ++i) {
    if (out_stores_[i]->kind() != store_kind::ext) continue;
    auto* em = static_cast<em_store*>(out_stores_[i].get());
    em->write_part_async(ctx.part, std::move(ctx.out_stage[i]));
  }

  // Publish cumulative carries for the next partition.
  for (auto& [id, chain] : cum_chains_) {
    const auto& carry = ctx.cum_carry[static_cast<std::size_t>(id)];
    chain.publish(ctx.part, carry.data(), carry.size());
  }

  FLASHR_DCHECK(std::none_of(ctx.out_stage.begin(), ctx.out_stage.end(),
                             [](const pool_buffer& b) { return b.valid(); }),
                "staged output buffer survived its partition");
}

void pass_runner::bind_partition_leaves(thread_ctx& ctx) {
  for (std::size_t id = 0; id < dag_.nodes.size(); ++id) {
    const plan_node& n = dag_.nodes[id];
    if (n.kind == store_kind::mem) {
      auto* m = static_cast<const mem_store*>(n.store);
      ctx.part_view[id] =
          kern::view{m->part_data(ctx.part), m->part_stride(ctx.part)};
    } else if (n.kind == store_kind::ext) {
      auto it = ctx.em_bufs.find(static_cast<const em_readable*>(n.store));
      FLASHR_ASSERT(it != ctx.em_bufs.end(), "EM partition not prefetched");
      ctx.part_view[id] = kern::view{it->second.data(), ctx.part_rows};
    }
  }
}

chunk_buf& pass_runner::ensure(thread_ctx& ctx, int id) {
  const auto idx = static_cast<std::size_t>(id);
  chunk_buf& cb = ctx.chunk[idx];
  if (cb.gen == ctx.gen) return cb;

  const plan_node& n = dag_.nodes[idx];
  cb.gen = ctx.gen;
  cb.remaining = n.consumers;

  switch (n.kind) {
    case store_kind::mem:
    case store_kind::ext: {
      const kern::view& part = ctx.part_view[idx];
      cb.v = kern::view{part.data + ctx.chunk_row0 * n.store->elem_size(),
                        part.stride};
      break;
    }
    case store_kind::generated: {
      auto* g = static_cast<const generated_store*>(n.store);
      const std::size_t bytes = ctx.chunk_rows * g->ncol() * g->elem_size();
      cb.owned = ctx.free_bufs.take(bytes);
      ++ctx.live_owned;
      {
        obs::probe gen_probe({.name = n.op,
                              .arg = ctx.chunk_rows,
                              .hot = true,
                              .acc = prof_ns(ctx, id,
                                             &obs::node_counters::kernel_ns)});
        g->generate(ctx.part_row0 + ctx.chunk_row0, ctx.chunk_rows,
                    cb.owned.data(), ctx.chunk_rows);
      }
      if (prof_) count_chunk(ctx, id, ctx.chunk_rows, bytes);
      cb.v = kern::view{cb.owned.data(), ctx.chunk_rows};
      break;
    }
    case store_kind::virt:
      eval_virtual(ctx, id, cb);
      break;
  }
  return cb;
}

void pass_runner::unref(thread_ctx& ctx, int id) {
  chunk_buf& cb = ctx.chunk[static_cast<std::size_t>(id)];
  FLASHR_ASSERT(cb.gen == ctx.gen && cb.remaining > 0,
                "unref of missing chunk");
  if (--cb.remaining <= 0 && cb.owned.valid()) {
    // The buffer goes on this worker's LIFO free list, so the very next
    // allocation — typically the consumer's output — reuses cache-hot
    // memory (§3.5.1).
    ctx.free_bufs.give(std::move(cb.owned));
    --ctx.live_owned;
  }
}

void pass_runner::eval_virtual(thread_ctx& ctx, int id, chunk_buf& out) {
  const plan_node& n = dag_.nodes[static_cast<std::size_t>(id)];
  const auto* v = static_cast<const virtual_store*>(n.store);
  const genop& op = v->op();
  const int* ch = dag_.children_of(id);
  const matrix_store& c0 = store_of(ch[0]);
  const std::size_t rows = ctx.chunk_rows;
  const std::size_t cols = v->ncol();

  // Zero-copy identity cast: casting to the child's own scalar type over a
  // leaf that is already resident (a mem partition or a prefetched EM read
  // buffer) is a no-op — alias the child's view instead of allocating an
  // output chunk and running a copy kernel. Restricted to mem/ext leaves:
  // their views do not live in a recycled chunk buffer, so the alias stays
  // valid after the child's unref.
  if (op.kind == node_kind::cast_type && op.to_type == c0.type() &&
      (c0.kind() == store_kind::mem || c0.kind() == store_kind::ext)) {
    out.v = ensure(ctx, ch[0]).v;
    unref(ctx, ch[0]);
    ++ctx.zero_copy;
    if (prof_) count_chunk(ctx, id, rows, 0);
    return;
  }

  // Evaluate the children first (depth-first traversal). Their views stay
  // in their own chunk slots: a node is evaluated once per chunk, so the
  // nested ensure() calls never overwrite a sibling's slot, and a child's
  // buffer stays live until the unref() below.
  for (int k = 0; k < n.num_children; ++k) ensure(ctx, ch[k]);
  auto in = [&](int k) -> const kern::view& {
    return ctx.chunk[static_cast<std::size_t>(ch[k])].v;
  };

  // Kernel execution, named by the node's kind. One probe per node per
  // chunk is chunk-granularity, so its span goes to the full tracer only:
  // in the always-on flight recorder its two clock reads and ring writes
  // cost a transcendental chain 6% of its wall time with 128-row chunks.
  obs::probe kernel_probe(
      {.name = n.op,
       .arg = rows,
       .hot = true,
       .acc = prof_ns(ctx, id, &obs::node_counters::kernel_ns)});

  out.owned = ctx.free_bufs.take(rows * cols * v->elem_size());
  ++ctx.live_owned;
  char* o = out.owned.data();
  const std::size_t ostride = rows;
  const scalar_type ct = c0.type();

  switch (op.kind) {
    case node_kind::sapply:
      kern::sapply(ct, op.u, in(0), rows, cols, o, ostride);
      break;
    case node_kind::map2: {
      const bool bcast = store_of(ch[1]).ncol() == 1 && cols > 1;
      kern::map2(ct, op.b, in(0), in(1), bcast, rows, cols, o, ostride);
      break;
    }
    case node_kind::map_scalar:
      kern::map_scalar(ct, op.b, in(0), op.scalar, op.scalar_left, rows, cols,
                       o, ostride);
      break;
    case node_kind::sweep_rowvec:
      kern::sweep_rowvec(ct, op.b, in(0), op.small.data(), rows, cols, o,
                         ostride);
      break;
    case node_kind::inner_prod:
      kern::inner_prod(ct, op.b, op.a, in(0), rows, c0.ncol(), op.small, o,
                       ostride);
      break;
    case node_kind::agg_row:
      kern::agg_row(ct, op.a, op.return_index, in(0), rows, c0.ncol(), o);
      break;
    case node_kind::cum_col: {
      auto& carry = ctx.cum_carry[static_cast<std::size_t>(id)];
      kern::cum_col(ct, op.b, in(0), rows, cols, o, ostride, carry.data(),
                    ctx.cum_has_carry);
      break;
    }
    case node_kind::cum_row:
      kern::cum_row(ct, op.b, in(0), rows, cols, o, ostride);
      break;
    case node_kind::cast_type:
      kern::cast(ct, op.to_type, in(0), rows, cols, o, ostride);
      break;
    case node_kind::select_cols: {
      for (std::size_t j = 0; j < op.cols.size(); ++j) {
        kern::view col{in(0).data + op.cols[j] * in(0).stride * v->elem_size(),
                       in(0).stride};
        kern::copy(ct, col, rows, 1, o + j * ostride * v->elem_size(),
                   ostride);
      }
      break;
    }
    case node_kind::groupby_col:
      kern::groupby_col(ct, op.a, in(0), rows, c0.ncol(), op.cols.data(),
                        op.num_groups, o, ostride);
      break;
    case node_kind::cbind2: {
      std::size_t at = 0;
      for (int k = 0; k < n.num_children; ++k) {
        const matrix_store& c = store_of(ch[k]);
        kern::copy(c.type(), in(k), rows, c.ncol(),
                   o + at * ostride * v->elem_size(), ostride);
        at += c.ncol();
      }
      break;
    }
    default:
      FLASHR_ASSERT(false, "sink evaluated as aligned node");
  }
  kernel_probe.stop();

  if (prof_) count_chunk(ctx, id, rows, rows * cols * v->elem_size());
  out.v = kern::view{o, ostride};
  for (int k = 0; k < n.num_children; ++k) unref(ctx, ch[k]);
}

void pass_runner::process_chunk(thread_ctx& ctx) {
  obs::probe chunk_probe(
      {.name = "chunk", .arg = ctx.chunk_row0, .hot = true});
  ++ctx.gen;
  // Tall outputs: evaluate and copy the chunk into the partition store.
  for (std::size_t i = 0; i < dag_.tall_outputs.size(); ++i) {
    const int id = dag_.tall_ids[i];
    const matrix_store& v = store_of(id);
    chunk_buf& cb = ensure(ctx, id);
    const std::size_t esz = v.elem_size();
    {
      // The output move is data plumbing, not compute: it lands on the
      // node's copy time, not its kernel time.
      obs::probe copy_probe(
          {.name = "output.copy",
           .arg = ctx.chunk_rows,
           .hot = true,
           .acc = prof_ns(ctx, id, &obs::node_counters::copy_ns)});
      if (out_stores_[i]->kind() == store_kind::ext) {
        char* dst = ctx.out_stage[i].data() + ctx.chunk_row0 * esz;
        kern::copy(v.type(), cb.v, ctx.chunk_rows, v.ncol(), dst,
                   ctx.part_rows);
      } else {
        auto* m = static_cast<mem_store*>(out_stores_[i].get());
        char* dst = m->part_data(ctx.part) + ctx.chunk_row0 * esz;
        kern::copy(v.type(), cb.v, ctx.chunk_rows, v.ncol(), dst,
                   m->part_stride(ctx.part));
      }
    }
    unref(ctx, id);
  }

  // Sinks: accumulate into this thread's partials. Like eval_virtual: the
  // children first (ensure() may evaluate the whole virtual chain beneath
  // the sink, and those kernels time themselves), then one probe around
  // the accumulate kernel alone, then the unrefs.
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    const int id = dag_.sink_ids[s];
    const plan_node& n = dag_.nodes[static_cast<std::size_t>(id)];
    const genop& op = sinks_[s].node->op();
    const int* ch = dag_.children_of(id);
    for (int k = 0; k < n.num_children; ++k) ensure(ctx, ch[k]);
    auto in = [&](int k) -> const kern::view& {
      return ctx.chunk[static_cast<std::size_t>(ch[k])].v;
    };
    char* acc = ctx.sink_acc[s].data();
    const matrix_store& a = store_of(ch[0]);
    const scalar_type ct = a.type();
    {
      obs::probe sink_probe(
          {.name = n.op,
           .arg = ctx.chunk_rows,
           .hot = true,
           .acc = prof_ns(ctx, id, &obs::node_counters::kernel_ns)});
      switch (op.kind) {
        // A full aggregate keeps one accumulator per column until
        // agg_finish, so both accumulate exactly like a column aggregate.
        case node_kind::s_agg_full:
        case node_kind::s_agg_col:
          kern::agg_col_acc(ct, op.a, in(0), ctx.chunk_rows, a.ncol(), acc);
          break;
        case node_kind::s_tmm:
          kern::tmm_acc(ct, op.b, op.a, in(0), in(1), ctx.chunk_rows,
                        a.ncol(), store_of(ch[1]).ncol(), acc);
          break;
        case node_kind::s_groupby_row:
          kern::groupby_row_acc(ct, op.a, in(0), in(1), ctx.chunk_rows,
                                a.ncol(), op.num_groups, acc);
          break;
        case node_kind::s_count_groups:
          kern::count_groups_acc(in(0), ctx.chunk_rows, op.num_groups,
                                 reinterpret_cast<std::int64_t*>(acc));
          break;
        default:
          FLASHR_ASSERT(false, "aligned node in sink list");
      }
    }
    for (int k = 0; k < n.num_children; ++k) unref(ctx, ch[k]);
    if (prof_) count_chunk(ctx, id, ctx.chunk_rows, 0);
  }

  // Every owned buffer must have been recycled by its last consumer.
  FLASHR_ASSERT(ctx.live_owned == 0,
                "leaked owned chunk buffer (refcount bug)");
  // Stronger per-node audit under the invariant validator: every Pcache
  // chunk touched this generation must have had its consumer count reach
  // zero, recycled buffer or not (§3.5.1's per-partition counters).
  if (invariants_enabled()) {
    for (const chunk_buf& cb : ctx.chunk)
      FLASHR_DCHECK(cb.gen != ctx.gen || cb.remaining == 0,
                    "Pcache partition counter did not reach zero");
  }
}

void pass_runner::merge_sinks() {
  if (sinks_.empty()) return;
  mutex_lock lock(acc_mutex_);
  // submit_sink_partials() merged every partition in ascending order as the
  // pass ran; a successful pass must have drained the frontier completely.
  FLASHR_ASSERT(sink_total_init_ && pending_sink_parts_.empty() &&
                    next_merge_part_ == dag_.space.num_parts(),
                "sink partials incomplete at merge");
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    const sink_desc& d = sinks_[s];
    std::vector<char> total = std::move(sink_total_[s]);
    // The full aggregate kept one accumulator per input column for chunk-
    // size-independent folding; collapse them (in column order) now.
    if (d.node->op().kind == node_kind::s_agg_full) {
      std::vector<char> one(type_size(d.out_type));
      kern::agg_finish(d.out_type, d.merge_op, total.data(), d.acc_elems,
                       one.data());
      total = std::move(one);
    }
    // Sinks always land in memory (§3.5).
    auto out = mem_store::create(d.out_rows, d.out_cols, d.out_type);
    FLASHR_ASSERT(out->num_parts() == 1, "sink result must fit a partition");
    kern::copy(d.out_type, kern::view{total.data(), d.out_rows}, d.out_rows,
               d.out_cols, out->part_data(0), out->part_stride(0));
    d.node->set_result(out);
    if (prof_) obs::profile_alias(out.get(), d.node);
  }
}

// ---------------------------------------------------------------------------
// Admission + degradation ladder (core/governor.h)
// ---------------------------------------------------------------------------

/// Estimated peak TRANSIENT pool demand of one pass. Covers the terms a
/// pass releases at its end: the prefetch window, each worker's claimed
/// partition buffers, per-worker chunk evaluation state, EM-output staging
/// and the write-behind that pop()'s back-pressure lets the pass hold.
/// Persistent in-memory outputs (mem_store partitions that outlive the
/// pass) are deliberately excluded — they are the caller's data, not pass
/// overhead. Deterministic for a fixed DAG and configuration, so the
/// degradation ladder converges. Returns pool-buffer bytes.
std::size_t estimate_footprint(const dag_info& dag, long depth,
                               std::size_t chunk_rows, storage st) {
  std::size_t fp = 0;
  const auto threads = static_cast<std::size_t>(thread_pool::global().size());
  const std::size_t d = depth > 0 ? static_cast<std::size_t>(depth) : 0;

  // Partition 0 is a full-height partition (only the last may be short).
  std::size_t leaf_part_bytes = 0;
  for (const em_readable* l : dag.em_leaves)
    leaf_part_bytes += l->geom().part_bytes(0, l->type());
  // Window reads plus one claimed partition per worker.
  fp += (d + threads) * leaf_part_bytes;

  // Chunk evaluation state: every node that owns a chunk buffer (virtual
  // and generated; mem/ext leaves are views into existing storage, sinks
  // accumulate into their partials).
  const std::size_t crows =
      chunk_rows == 0 ? dag.space.part_rows : chunk_rows;
  std::size_t node_row_bytes = 0;
  for (const plan_node& n : dag.nodes) {
    if (n.kind == store_kind::mem || n.kind == store_kind::ext || n.sink)
      continue;
    node_row_bytes += n.store->ncol() * n.store->elem_size();
  }
  fp += threads * crows * node_row_bytes;

  // EM outputs: one staged partition per worker, plus the write-behind.
  // pop()'s back-pressure keeps at most depth + workers writes queued (each
  // worker submits after its last check) and each worker runs one more; the
  // I/O threads run one each. The write budget caps the sum too.
  std::size_t out_part_bytes = 0;
  for (const virtual_store* v : dag.tall_outputs) {
    const storage s =
        dag.requested_talls.count(v) ? st : v->cache_storage();
    if (s == storage::ext_mem)
      out_part_bytes += v->geom().part_bytes(0, v->type());
  }
  if (out_part_bytes != 0) {
    fp += threads * out_part_bytes;
    const std::size_t io_threads =
        static_cast<std::size_t>(conf().io_threads);
    const std::size_t held = (d + 2 * threads + io_threads) * out_part_bytes;
    const std::size_t wb = conf().max_inflight_write_bytes;
    fp += wb != 0 ? std::min(wb, held) : held;
  }
  return fp;
}

/// RAII health() accounting for a pass running in a degraded configuration.
struct degraded_scope {
  explicit degraded_scope(bool on) : on_(on) {
    if (on_) resource_governor::global().note_degraded_begin();
  }
  ~degraded_scope() {
    if (on_) resource_governor::global().note_degraded_end();
  }
  degraded_scope(const degraded_scope&) = delete;
  degraded_scope& operator=(const degraded_scope&) = delete;
  bool on_;
};

/// Admit one pass, walking the degradation ladder until its footprint fits
/// conf().mem_budget_bytes (0 = no limit): halve the prefetch window
/// (…→1→0, each rung strictly smaller), then shrink the Pcache chunk
/// (converting a whole-partition pass to chunked evaluation first). One
/// materialize() runs at a time, so admission is this one comparison: no
/// other pass holds budget to wait for. Every step lands in ctl->degrade
/// and the governor metrics. Returns with cfg updated; throws a typed
/// overload_error when even the last rung does not fit.
void admit_with_degradation(const dag_info& dag, pass_config& cfg,
                            pass_ctl* ctl) {
  auto& gov = resource_governor::global();
  const std::uint64_t pass_id = ctl != nullptr ? ctl->pass_id : 0;
  const std::size_t budget = conf().mem_budget_bytes;
  long depth = default_prefetch_depth();
  auto record_step = [&](std::string step) {
    if (ctl != nullptr) {
      active_pass_degrade(ctl->pass_id, step);
      ctl->degrade.push_back(std::move(step));
    }
    gov.count_degrade_step();
  };
  auto reject = [&](std::size_t fp) {
    gov.count_reject();
    obs::incident_request(
        obs::incident_kind::governor_overload,
        "footprint exceeds the memory budget even fully degraded");
    throw overload_error(
        "pass footprint exceeds the memory budget even fully degraded",
        pass_id, fp, budget);
  };
  for (;;) {
    const std::size_t fp =
        estimate_footprint(dag, depth, cfg.chunk_rows, cfg.st);
    if (budget == 0 || fp <= budget) {
      cfg.prefetch_depth = depth;
      gov.count_admitted();
      return;
    }
    // Over budget: degrade. Depth first (read-ahead is pure overhead), then
    // chunking (trades kernel efficiency, never results).
    if (depth > 1) {
      record_step("depth:" + std::to_string(depth) + "->" +
                  std::to_string(depth / 2));
      depth /= 2;
    } else if (depth == 1) {
      record_step("depth:1->0");
      depth = 0;
    } else if (cfg.chunk_rows == 0 && dag.space.part_rows > 16) {
      // Whole-partition evaluation -> Pcache chunking. Start from the
      // pcache_bytes-derived chunk; make sure the rung actually shrinks.
      std::size_t c = chunk_rows_for(dag);
      if (c >= dag.space.part_rows)
        c = std::max<std::size_t>(16, std::bit_floor(dag.space.part_rows) / 2);
      if (c >= dag.space.part_rows) reject(fp);
      record_step("chunk:0->" + std::to_string(c));
      cfg.chunk_rows = c;
    } else if (cfg.chunk_rows > 16) {
      record_step("chunk:" + std::to_string(cfg.chunk_rows) + "->" +
                  std::to_string(cfg.chunk_rows / 2));
      cfg.chunk_rows /= 2;
    } else {
      reject(fp);
    }
  }
}

// ---------------------------------------------------------------------------
// Mode selection
// ---------------------------------------------------------------------------

void run_fused(dag_info& dag, storage st, bool cache_fuse, pass_ctl* ctl) {
  if (dag.order.empty()) return;
  pass_config cfg;
  cfg.st = st;
  cfg.chunk_rows = cache_fuse ? chunk_rows_for(dag) : 0;
  const std::size_t steps_before = ctl != nullptr ? ctl->degrade.size() : 0;
  admit_with_degradation(dag, cfg, ctl);
  degraded_scope degraded(ctl != nullptr &&
                          ctl->degrade.size() > steps_before);
  pass_runner runner(dag, cfg, ctl);
  runner.run();
}

/// "Base" execution: one full pass per operation. When the DAG's data lives
/// on SSDs, intermediates are materialized on SSDs too — that is the paper's
/// base ("materializing every matrix operation separately causes SSDs to be
/// the main bottleneck"); only requested targets honour the caller's
/// storage. Sinks always land in memory regardless.
void run_eager(dag_info& dag, storage st,
               const std::vector<matrix_store::ptr>& targets, pass_ctl* ctl) {
  const storage intermediate_st =
      dag.em_leaves.empty() ? st : storage::ext_mem;
  std::unordered_set<const matrix_store*> requested;
  for (const auto& t : targets)
    if (t) requested.insert(resolve(t.get()));
  for (virtual_store* v : dag.order) {
    if (v->has_result()) continue;
    std::vector<matrix_store::ptr> single{v->shared_from_this()};
    dag_info sub = collect(single);
    run_fused(sub, requested.count(v) ? st : intermediate_st, false, ctl);
  }
}

}  // namespace

long default_prefetch_depth() {
  // Auto: one read in flight and one landed partition per I/O thread.
  // Workers idle in pop() run queued reads too (async_io::help_one), but
  // only those the window issued, so the depth also bounds the reads in
  // flight. DESIGN §8.1 has the measurements behind the choice.
  return conf().prefetch_depth < 0
             ? 2 * static_cast<long>(conf().io_threads)
             : static_cast<long>(conf().prefetch_depth);
}

std::size_t pcache_rows(std::size_t max_ncol, std::size_t part_rows,
                        std::size_t elem_bytes) {
  const std::size_t bytes_per_row =
      std::max<std::size_t>(max_ncol, 1) * std::max<std::size_t>(elem_bytes, 1);
  std::size_t rows = conf().pcache_bytes / bytes_per_row;
  rows = std::max<std::size_t>(rows, 16);
  rows = std::bit_floor(rows);
  return std::min(rows, part_rows);
}

pass_stats last_pass_stats() {
  mutex_lock lock(g_stats_mutex);
  return g_last_stats;
}

std::string pass_stats::to_json() const {
  // Generated from the same X-macro the parity test expands: a field in the
  // struct IS a key in the JSON, with no hand-maintained format string to
  // fall behind (zero_copy_chunks, degrade_steps and degrade_path once did).
  std::string s = "{";
#define FLASHR_PASS_STATS_JSON(f)                                      \
  s += "\"" #f "\": " +                                                \
       std::to_string(static_cast<std::uint64_t>(f)) + ", ";
  FLASHR_PASS_STATS_FIELDS(FLASHR_PASS_STATS_JSON)
#undef FLASHR_PASS_STATS_JSON
  // Ladder steps are [a-z0-9:>,-] only — no JSON escaping needed.
  s += "\"degrade_path\": \"";
  s += degrade_path;
  s += "\"}";
  return s;
}

std::string active_passes_json() {
  const std::uint64_t now = now_ns();
  mutex_lock lock(g_stats_mutex);
  std::string out = "[";
  bool first = true;
  for (const active_pass& p : g_active) {
    if (!first) out += ',';
    first = false;
    out += "{\"pass_id\":" + std::to_string(p.pass_id);
    out += ",\"start_ns\":" + std::to_string(p.start_ns);
    out += ",\"elapsed_ns\":" +
           std::to_string(now > p.start_ns ? now - p.start_ns : 0);
    out += ",\"deadline_ms\":" + std::to_string(p.deadline_ms);
    out += ",\"mode\":\"";
    out += exec_mode_name(p.mode);
    out += "\",\"degrade\":\"";
    out += p.degrade;  // ladder steps: [a-z0-9:>,-], no escaping needed
    out += "\"}";
  }
  out += "]";
  return out;
}

void materialize(const std::vector<matrix_store::ptr>& targets, storage st) {
  materialize(targets, st, materialize_opts{});
}

void materialize(const std::vector<matrix_store::ptr>& targets, storage st,
                 const materialize_opts& opts) {
  obs::probe materialize_probe({.name = "materialize", .arg = targets.size()});
  static const bool probes_registered = [] {
    register_pass_probes();
    return true;
  }();
  (void)probes_registered;
  // One materialize() at a time per process: a second caller would reset
  // the running call's statistics and enter the pool's running job.
  if (g_materializing.exchange(true))
    throw error(
        "materialize() called while another materialize() is in flight; "
        "one materialize() runs at a time per process");
  struct in_flight {
    ~in_flight() { g_materializing.store(false); }
  } in_flight_guard;
  // Structural validation (shape/orientation consistency, dangling nodes,
  // cycles) before any buffer is touched; no-op unless invariants are on.
  validate::check_dag(targets);
  dag_info dag = collect(targets);
  // A no-op materialization (every target already materialized) keeps the
  // previous stats: callers commonly read results back (to_smat and friends
  // re-enter materialize) before inspecting last_pass_stats().
  if (dag.order.empty()) return;
  // Arm the per-node profiler: map every store of the pending DAG to the
  // deterministic DFS plan id explain() would assign it.
  if (obs::profile_on()) obs::profile_begin(targets);
  g_stats_acc = {};
  {
    mutex_lock lock(g_stats_mutex);
    g_last_stats = {};
  }

  // Per-call resilience limits: the deadline (opts override, else conf) is
  // one absolute instant covering every pass of this call.
  pass_ctl ctl;
  ctl.pass_id = g_pass_id.fetch_add(1, std::memory_order_relaxed) + 1;
  ctl.start_ns = now_ns();
  ctl.deadline_ms =
      opts.deadline_ms != 0 ? opts.deadline_ms : conf().pass_deadline_ms;
  ctl.deadline_ns =
      ctl.deadline_ms != 0 ? ctl.start_ns + ctl.deadline_ms * 1000000ull : 0;
  ctl.stall_ms = conf().watchdog_stall_ms;
  active_pass_register(ctl.pass_id, ctl.start_ns, ctl.deadline_ms);

  // Bracket the passes with global-counter snapshots so last_pass_stats()
  // reports this materialization's I/O only. Runs even when a pass throws:
  // a cancelled pass's partial stats are still meaningful to callers.
  auto& ios = io_stats::global();
  auto& aio = async_io::global();
  const std::uint64_t rb0 = ios.read_bytes.load(std::memory_order_relaxed);
  const std::uint64_t wb0 = ios.write_bytes.load(std::memory_order_relaxed);
  aio.reset_throttle_hwm();
  const auto th0 = aio.throttle_stats();
  const std::uint64_t zc0 = g_zero_copy_total.load(std::memory_order_relaxed);
  struct stats_finalizer {
    io_stats& ios;
    async_io& aio;
    std::uint64_t rb0, wb0, zc0;
    async_io::write_throttle_stats th0;
    const pass_ctl& ctl;
    ~stats_finalizer() {
      // Build the snapshot off-lock, publish it in one assignment so a
      // concurrent last_pass_stats() never sees a half-written struct.
      pass_stats s;
      s.passes = g_stats_acc.passes;
      s.sequential_passes = g_stats_acc.sequential_passes;
      s.read_bytes = ios.read_bytes.load(std::memory_order_relaxed) - rb0;
      s.write_bytes = ios.write_bytes.load(std::memory_order_relaxed) - wb0;
      s.read_wait_ns = g_stats_acc.read_wait_ns;
      s.reads_issued = g_stats_acc.reads_issued;
      s.occupancy_x100 =
          g_stats_acc.pops == 0
              ? 0
              : g_stats_acc.occupancy_sum * 100 / g_stats_acc.pops;
      const auto th1 = aio.throttle_stats();
      s.write_throttle_stalls = th1.stalls - th0.stalls;
      s.write_throttle_ns = th1.stall_ns - th0.stall_ns;
      s.write_inflight_hwm = th1.hwm_bytes;
      s.zero_copy_chunks = static_cast<std::size_t>(
          g_zero_copy_total.load(std::memory_order_relaxed) - zc0);
      s.degrade_steps = ctl.degrade.size();
      for (const std::string& step : ctl.degrade) {
        if (!s.degrade_path.empty()) s.degrade_path += ",";
        s.degrade_path += step;
      }
      mutex_lock lock(g_stats_mutex);
      g_last_stats = s;
      // This materialization is over (normally or by exception): drop its
      // active-pass entry under the same lock that published its stats.
      for (auto it = g_active.begin(); it != g_active.end(); ++it) {
        if (it->pass_id == ctl.pass_id) {
          g_active.erase(it);
          break;
        }
      }
    }
  } finalize{ios, aio, rb0, wb0, zc0, th0, ctl};

  switch (conf().mode) {
    case exec_mode::eager:
      run_eager(dag, st, targets, &ctl);
      break;
    case exec_mode::mem_fuse:
    case exec_mode::cache_fuse:
      try {
        run_fused(dag, st, conf().mode == exec_mode::cache_fuse, &ctl);
      } catch (const overload_error&) {
        // The fused pass cannot fit the budget even fully degraded, but
        // admission precedes execution, so nothing ran: the final ladder
        // rung retries node-at-a-time (eager) passes, whose sub-DAGs are
        // strictly smaller. A single-node DAG would just re-fail with the
        // identical footprint — surface the overload instead.
        if (dag.order.size() <= 1) throw;
        const std::string step =
            std::string("mode:") + exec_mode_name(conf().mode) + "->eager";
        active_pass_degrade(ctl.pass_id, step);
        ctl.degrade.push_back(step);
        resource_governor::global().count_degrade_step();
        run_eager(dag, st, targets, &ctl);
      }
      break;
  }
}

}  // namespace flashr::exec
