#ifndef STARMAGIC_EXEC_EXECUTOR_H_
#define STARMAGIC_EXEC_EXECUTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "catalog/catalog.h"
#include "exec/eval.h"
#include "exec/join.h"
#include "exec/select_plan.h"
#include "governor/governor.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "parallel/worker_pool.h"
#include "qgm/graph.h"

namespace starmagic {

struct ExecOptions {
  /// Cache correlated box results per distinct binding. Disabled by the
  /// Correlated strategy to model DB2-style nested iteration, which
  /// re-evaluates the inner query for every outer row.
  bool memoize_correlation = true;
  /// Probe catalog secondary indexes instead of building transient hash
  /// tables when a matching index exists and the build side is smaller
  /// than the stored table. Disable to force scans (A/B benchmarks).
  bool use_secondary_indexes = true;
  /// Safety cap, per select-box evaluation, on the combinations each join
  /// step produces and on the rows the projection produces. Not a budget
  /// duplicate: no ResourceBudget field stops a join step partway through.
  int64_t max_rows_per_box = 200'000'000;
  /// Span sink for per-box evaluation spans and fixpoint spans. No-op when
  /// null or disabled.
  Tracer* tracer = nullptr;
  /// Accumulate per-box statistics (evaluations, rows out, wall time,
  /// cache hits) for EXPLAIN ANALYZE. Off by default: the bookkeeping adds
  /// a clock read and a map lookup per box evaluation.
  bool collect_box_stats = false;
  /// Worker threads for the morsel-driven parallel evaluation paths
  /// (partitioned scans, hash-join probes, index probes — including the
  /// joins inside each fixpoint round). 1 = fully sequential. Result rows
  /// and every deterministic work counter are bit-identical for any value
  /// (see docs/parallelism.md for the contract).
  int num_threads = 1;
  /// Rows per morsel for the parallel loops, and the threshold below
  /// which a loop stays sequential (splitting tiny inputs costs more than
  /// it saves). Tests shrink this to exercise the parallel paths on small
  /// tables; the split is a function of input size only, never of the
  /// thread count, so results cannot shift with it.
  int64_t morsel_size = 2048;
  /// Per-query resource governor (not owned; must outlive the executor).
  /// The executor charges every materialized allocation against its byte
  /// budget — join combination buffers, hash-join build tables, box-result
  /// caches, fixpoint relations — and polls it for cancellation/deadline at
  /// box entry, morsel boundaries, and each fixpoint round; its fixpoint
  /// check is the only cap on recursion. Null makes the executor create and
  /// own one with ResourceBudget::Unlimited(), so every run is governed.
  ResourceGovernor* governor = nullptr;
  /// Live-progress sink for this query (not owned, may be null). Updated
  /// with wait-free relaxed stores at the same sites the governor polls —
  /// box entry (rows so far, governor peak), fixpoint rounds, and morsel
  /// claims inside the worker pool — so sys.active_queries snapshots see
  /// execution advance without any new synchronization on the hot path.
  ProgressTracker* progress = nullptr;
};

/// Deterministic work counters (machine-independent evidence for the
/// benchmark tables, next to wall-clock time).
struct ExecStats {
  int64_t rows_scanned = 0;     ///< input rows consumed by operators
  int64_t rows_produced = 0;    ///< rows emitted by box evaluations
  int64_t join_probes = 0;      ///< hash probes + nested-loop comparisons
  int64_t box_evaluations = 0;  ///< materializations (incl. per-binding)
  int64_t fixpoint_iterations = 0;
  int64_t index_probes = 0;       ///< secondary-index lookups (eq or range)
  int64_t index_rows_fetched = 0; ///< rows returned by index lookups
  // Box-result cache behaviour (uncorrelated cache + correlated-binding
  // memo). Deliberately excluded from TotalWork(): a hit avoids work, and
  // the cross-strategy work comparisons must not shift with cache luck.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  int64_t TotalWork() const {
    return rows_scanned + rows_produced + join_probes + index_probes +
           index_rows_fetched;
  }
  /// Adds every counter of `other` into this. Addition is commutative, so
  /// merging per-worker stats in any order yields totals identical to a
  /// sequential run's.
  void MergeFrom(const ExecStats& other);
  std::string ToString() const;
};

/// Per-box runtime statistics, collected when ExecOptions::collect_box_stats
/// is set (EXPLAIN ANALYZE). `wall_ms` and `probes` are inclusive of child
/// box evaluations performed during this box's evaluation; `rows_out` sums
/// across all evaluations of the box (one per correlated binding, one per
/// fixpoint iteration), so summing rows_out over all computed boxes
/// (Executor::box_stats) reproduces ExecStats::rows_produced exactly.
///
/// Base tables are read, not computed, so their entries live apart
/// (Executor::table_stats): `evaluations` counts full scans, `probes`
/// counts secondary-index probes, and `rows_out` counts the rows the scans
/// read plus the rows the probes fetched. `wall_ms` stays 0.
struct BoxExecStats {
  int64_t evaluations = 0;
  int64_t rows_out = 0;
  int64_t cache_hits = 0;
  int64_t probes = 0;  ///< join + index probes, inclusive of children
  double wall_ms = 0;  ///< inclusive wall time
};

/// Evaluates a QGM query graph bottom-up with materialized intermediate
/// results: hash joins over ForEach quantifiers, semi/anti evaluation for
/// E/A quantifiers, per-binding evaluation for correlated boxes, and
/// fixpoint iteration for recursive components.
class Executor {
 public:
  Executor(QueryGraph* graph, const Catalog* catalog, ExecOptions options);
  Executor(QueryGraph* graph, const Catalog* catalog)
      : Executor(graph, catalog, ExecOptions{}) {}
  /// Releases the governor charges of the box-result caches, correlated
  /// memo, sys-snapshot tables, and converged fixpoint relations — exactly
  /// once, as the cached tables die with the executor. Without this, an
  /// engine that reused one governor across executors would see cache
  /// bytes accumulate as a leak.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Evaluates the top box, applies ORDER BY / LIMIT, and returns the
  /// result with column names from the top box.
  Result<Table> Run();

  const ExecStats& stats() const { return stats_; }

  /// Per-box stats keyed by box id; empty unless collect_box_stats.
  const std::map<int, BoxExecStats>& box_stats() const { return box_stats_; }
  /// Per-base-table-box access stats (scans and index probes) keyed by box
  /// id; empty unless collect_box_stats.
  const std::map<int, BoxExecStats>& table_stats() const {
    return table_stats_;
  }

  /// Wall-clock-side parallel counters (tasks, morsels, wait times); all
  /// zero when num_threads == 1. Not part of the deterministic ExecStats.
  ParallelStats parallel_stats() const {
    return pool_ != nullptr ? pool_->stats() : ParallelStats{};
  }

 private:
  /// One joined row combination as a join step appends it: the index of
  /// the outer combination it extends (in the previous step's output) and
  /// the row the step bound. The outer combination is shared, not copied.
  struct Combo {
    int64_t outer;
    const Row* row;
  };
  using ComboVec = std::vector<Combo>;
  /// Evaluates `box` under `env`, returning a stable pointer: cached
  /// storage, or `*scratch` when memoization is off for this evaluation.
  Result<const Table*> EvalBox(Box* box, const RowEnv& env, Table* scratch);

  Result<Table> ComputeBox(Box* box, const RowEnv& env);
  /// Kind dispatch without the instrumentation wrapper of ComputeBox.
  Result<Table> DispatchBox(Box* box, const RowEnv& env);
  Result<Table> ComputeSelect(Box* box, const RowEnv& env);
  /// The lowered plan of select box `box`, built on first use.
  const SelectPlan& PlanFor(Box* box);
  Result<Table> ComputeGroupBy(Box* box, const RowEnv& env);
  Result<Table> ComputeSetOp(Box* box, const RowEnv& env);
  Result<Table> ComputeCustom(Box* box, const RowEnv& env);

  Status EnsureSccEvaluated(int scc_id);

  /// Sorted (quantifier, column) pairs the subtree of `box` references but
  /// does not own — the correlation signature (memoized).
  const std::vector<std::pair<int, int>>& ExternalRefs(Box* box);

  /// Binding-key row for `box` under `env` (values of the external refs).
  Result<Row> BindingKey(Box* box, const RowEnv& env);

  /// True when a loop over `n` items should use the worker pool.
  bool ShouldParallelize(int64_t n) const {
    return pool_ != nullptr && n > options_.morsel_size;
  }

  /// Runs `body` over [0, n) split into morsels: each morsel gets its own
  /// output buffer and each worker its own ExecStats; buffers are
  /// concatenated into *next in morsel order (reproducing the sequential
  /// loop's row order exactly) and the stats are summed into stats_. The
  /// body must only read shared state — in particular it must not call
  /// EvalBox (caches are coordinator-only). Each morsel's buffer bytes
  /// (ComboBytes of `arity` per combination) are reserved with the governor
  /// worker-side as the morsel completes and the total is added to
  /// *charged_bytes (the caller releases them when the buffered
  /// combinations die).
  Status ParallelAppend(
      int64_t n, int arity,
      const std::function<Status(int64_t begin, int64_t end, ComboVec* out,
                                 ExecStats* stats)>& body,
      ComboVec* next, int64_t* charged_bytes);

  /// Runs one join step's `body` (ParallelAppend's contract) over the `n`
  /// current combinations: through ParallelAppend when ShouldParallelize(n),
  /// otherwise as one body(0, n, next, &stats_) call writing straight into
  /// *next (the caller charges that output at the step's end).
  template <typename Body>
  Status RunStep(int64_t n, int arity, const Body& body, ComboVec* next,
                 int64_t* charged_bytes) {
    if (ShouldParallelize(n)) {
      return ParallelAppend(n, arity, body, next, charged_bytes);
    }
    return body(0, n, next, &stats_);
  }

  QueryGraph* graph_;
  const Catalog* catalog_;
  /// The unlimited governor created when ExecOptions::governor is null.
  /// Declared before pool_, whose workers poll it, so it outlives them.
  std::unique_ptr<ResourceGovernor> owned_governor_;
  ExecOptions options_;  ///< options_.governor is never null
  ExecStats stats_;
  std::map<int, BoxExecStats> box_stats_;
  std::map<int, BoxExecStats> table_stats_;
  std::unique_ptr<WorkerPool> pool_;  ///< null when num_threads == 1

  /// sys.* snapshot tables already charged to the governor (lower-case
  /// names). Snapshots are query-local state: their bytes are reserved
  /// once, at first scan, and held until the query ends.
  std::set<std::string> charged_sys_tables_;

  /// Governor bytes held on behalf of executor-lifetime state (cache_,
  /// corr_cache_, sys snapshots, converged fixpoint relations). Released
  /// in one coordinator-side Release by the destructor.
  int64_t cache_charged_bytes_ = 0;

  std::map<int, Table> cache_;  ///< uncorrelated results, keyed by box id
  std::map<int, std::unordered_map<Row, Table, RowHash, RowEq>> corr_cache_;
  std::map<int, std::vector<std::pair<int, int>>> ext_refs_;
  std::map<int, SelectPlan> select_plans_;  ///< keyed by box id
  /// One past the largest quantifier id of the graph: the slot count of
  /// every RowEnv this executor creates, so binding never grows one.
  int num_slots_ = 0;
  QueryGraph::StrataInfo strata_;
  std::map<int, std::vector<int>> scc_members_;  ///< recursive SCCs only
  std::set<int> scc_done_;
  const std::map<int, Table>* scc_in_progress_ = nullptr;
  int scc_in_progress_id_ = -1;
};

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_EXECUTOR_H_
