#ifndef STARMAGIC_ENGINE_DATABASE_H_
#define STARMAGIC_ENGINE_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "governor/governor.h"
#include "obs/decision_audit.h"
#include "obs/progress.h"
#include "obs/query_log.h"
#include "optimizer/pipeline.h"
#include "plan/plan_cache.h"
#include "sys/system_tables.h"

namespace starmagic {

/// Options for one query execution.
struct QueryOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kMagic;
  PipelineOptions pipeline;  ///< strategy field is overwritten from above
  /// Store PrintGraph of the executed graph in QueryResult::plan_report
  /// (SELECT, EXECUTE and EXPLAIN ANALYZE; nothing runs for the others).
  bool capture_plan_report = false;
  /// Span sink threaded through the whole lifecycle (parse is untraced;
  /// optimization phases, rewrite passes, and execution get spans). No-op
  /// when null or disabled.
  Tracer* tracer = nullptr;
  /// Counter/histogram sink ("query.executions", "rewrite.fires.<rule>",
  /// "exec.rows_produced", ...). May be null.
  MetricsRegistry* metrics = nullptr;
  /// Worker threads for morsel-driven parallel execution (see
  /// ExecOptions::num_threads). 1 = sequential. Results and deterministic
  /// work counters are identical for any value.
  int num_threads = 1;
  /// Resource limits for this query (0 fields = unlimited). A query over
  /// any budget aborts cleanly with a typed Status: ResourceExhausted
  /// (memory/iterations/rows), DeadlineExceeded, or Cancelled — identical
  /// at any thread count. See docs/resource-governor.md.
  ResourceBudget budget;
  /// Optional cancellation flag; the caller may Cancel() from any thread
  /// and the query aborts with StatusCode::kCancelled at its next
  /// cooperative check. Not owned; must outlive the Query() call.
  const CancellationToken* cancel_token = nullptr;
  /// Rows per morsel for the parallel loops (see ExecOptions::morsel_size).
  /// Tests shrink it to exercise parallel paths on small (e.g. sys.*)
  /// tables; results are identical for any value.
  int64_t morsel_size = 2048;
  /// Consult the plan cache for plain SELECT / EXPLAIN statements: on a
  /// hit the parse→rewrite→optimize pipeline is skipped entirely and a
  /// clone of the cached graph executes; on a miss the compiled plan is
  /// inserted for next time. Off by default so existing compile-path
  /// diagnostics (rule fires, snapshots) stay per-query. PREPARE and
  /// EXECUTE always consult the cache, regardless of this flag — skipping
  /// recompilation is the point of PREPARE.
  bool use_plan_cache = false;
  /// Marks an engine-internal introspection query (the shell's canned
  /// sys.* queries behind dot-commands). Internal queries observe without
  /// perturbing: Query() runs them with no metrics sink, an unlimited
  /// budget and no cancel token, and records them nowhere. Their sys.*
  /// snapshot still reads the options as passed: sys.metrics reads
  /// `metrics`, and sys.governor and sys.settings show `budget` and the
  /// rest — the options being *displayed*, not enforced on the display.
  bool internal = false;

  QueryOptions() = default;
  explicit QueryOptions(ExecutionStrategy s) : strategy(s) {}
};

/// The one per-query record: the result table, the optimizer's §3.2
/// choice (the PlanChoice base), the rule fires, and what execution cost.
/// Query() fills it on failure too — the kind once parsed, the choice and
/// fires once compiled, the governor stats once executed — and its one
/// post-query writer feeds the query log, sys.rewrite_rules,
/// sys.box_stats and the exec.* / governor.* metrics from it.
struct QueryResult : PlanChoice {
  /// "select" | "explain" | "explain-analyze" | "prepare" | "execute" |
  /// "deallocate" (a statement that fails to parse stays "select").
  const char* kind = "select";
  Table table;
  ExecStats exec_stats;
  /// Rows the query produced. For EXPLAIN ANALYZE this counts the rows of
  /// the analyzed query, while `table` holds the report lines.
  int64_t result_rows = 0;
  /// §3.2 decision audit of this execution; meaningful when
  /// `decision_audited` (EMST pipeline ran and the query executed).
  DecisionAudit decision_audit;
  bool decision_audited = false;
  std::string plan_report;  ///< PrintGraph of the executed graph (optional)
  /// Per-phase per-rule rewrite fire counts (see RuleFireTable).
  std::vector<RuleFireStats> rule_fires;
  /// Per-box runtime stats, populated by EXPLAIN ANALYZE only.
  std::map<int, BoxExecStats> box_stats;
  /// Per-base-table access stats (scans, index probes), likewise.
  std::map<int, BoxExecStats> table_stats;
  /// The sys.box_stats rows of an EXPLAIN ANALYZE: every box in id order,
  /// its estimate next to its runtime stats. Empty otherwise.
  std::vector<SysBoxStatRow> box_rows;
  /// For EXPLAIN [ANALYZE] queries: the annotated plan text. The same text
  /// is returned as the rows of `table` (one line per row).
  std::string analyze_report;
  /// Resource-governor outcome of the execution: peak accounted bytes and
  /// cooperative-check count. Peak bytes are thread-count invariant for a
  /// given query (see docs/resource-governor.md). Set whenever `executed`,
  /// even when execution failed.
  GovernorStats governor;
  bool executed = false;  ///< the plan ran (to completion or to an abort)
  /// Milliseconds from Query() entry to the record being written: parse,
  /// compile, execution and the EXPLAIN report. The query log's wall_ms.
  double wall_ms = 0;
  /// Milliseconds spent in Executor::Run alone — the region the paper's
  /// Table 1 times. 0 when nothing executed (EXPLAIN, PREPARE,
  /// DEALLOCATE, or a failure before execution).
  double exec_ms = 0;
  /// True when the plan came from the plan cache (the compile pipeline was
  /// skipped). PREPARE counts as a lookup too, so re-preparing a body that
  /// is already cached is a hit. Always false for DEALLOCATE.
  bool plan_cache_hit = false;
};

/// The public facade: an embedded relational engine with the Starburst
/// EMST pipeline.
///
///   Database db;
///   db.Execute("CREATE TABLE emp (empno INTEGER, salary DOUBLE)");
///   db.Execute("INSERT INTO emp VALUES (1, 100.0)");
///   auto result = db.Query("SELECT * FROM emp",
///                          QueryOptions(ExecutionStrategy::kMagic));
class Database {
 public:
  Database() { catalog_.AttachSystemRegistry(&sys_registry_); }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes a DDL/DML statement (CREATE TABLE/VIEW, INSERT, DROP,
  /// ANALYZE). SELECT statements are rejected — use Query.
  Status Execute(const std::string& sql);

  /// Executes a script of ';'-separated statements.
  Status ExecuteScript(const std::string& sql);

  /// Parses, optimizes (per the strategy), and runs a query. Also accepts
  /// `EXPLAIN <query>` (optimize only; the result table holds the annotated
  /// plan) and `EXPLAIN ANALYZE <query>` (optimize + execute; the plan is
  /// annotated with actual per-box row counts and timings next to the
  /// optimizer's estimates).
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options = QueryOptions());

  /// Optimizes without executing; returns the pipeline diagnostics plus the
  /// final graph, for callers that inspect its shape (tests, the Figure 1/4
  /// and ablation benches). Execution goes through Query().
  Result<PipelineResult> Explain(const std::string& sql,
                                 const QueryOptions& options = QueryOptions());

  /// Declares the primary key of a table (enables duplicate-freeness
  /// inference). Columns are names.
  Status SetPrimaryKey(const std::string& table,
                       const std::vector<std::string>& columns);

  /// Recomputes optimizer statistics for all tables.
  Status AnalyzeAll() { return catalog_.AnalyzeAll(); }

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }

  /// Ring buffer of the most recent Query() calls (SQL, strategy, C1/C2,
  /// actual work/rows/wall time, status, phase-tagged rule fires).
  QueryLog* query_log() { return &query_log_; }
  const QueryLog* query_log() const { return &query_log_; }

  /// The virtual sys.* tables this database serves. Queries resolve
  /// "sys.<table>" names against it through a per-query snapshot: each
  /// Query() materializes every referenced sys table once, at its first
  /// scan, from live engine state (snapshot-at-scan-start — internally
  /// consistent, deterministic under parallel execution, and charged to
  /// the query's governor like any other scan). DDL/DML against sys.*
  /// returns StatusCode::kReadOnly. Extensions may Register additional
  /// tables.
  SystemTableRegistry* system_tables() { return &sys_registry_; }
  const SystemTableRegistry* system_tables() const { return &sys_registry_; }

  /// Live trackers of in-flight (non-internal) Query() calls — the source
  /// of sys.active_queries. Snapshot() is safe from any thread; the
  /// per-morsel updates are wait-free atomics on the executor hot path.
  ProgressRegistry* progress() { return &progress_; }
  const ProgressRegistry* progress() const { return &progress_; }

  /// Materializes one sys.* table directly from live engine state, without
  /// running SQL — the HTTP endpoint path (GET /sys/<table>). `options`
  /// feeds sys.settings and sys.governor exactly as it does for a query
  /// (pass `internal = true` to mark the observer). Thread-safe against
  /// concurrently executing queries: every source is either internally
  /// locked (metrics, query log, progress) or guarded by the Database's
  /// observability mutex (box stats, rewrite totals). NotFound for
  /// unregistered names.
  Result<Table> SnapshotSysTable(const std::string& name,
                                 const QueryOptions& options) const;

  /// The versioned plan cache behind PREPARE/EXECUTE (and, with
  /// QueryOptions::use_plan_cache, plain SELECT/EXPLAIN). Entries pin the
  /// referenced tables' modification/analyze versions plus the catalog DDL
  /// version at compile time; a stale entry is dropped at lookup, never
  /// executed. The shell's `.plancache` dot-command resizes/disables it
  /// through this accessor.
  PlanCache* plan_cache() { return &plan_cache_; }
  const PlanCache* plan_cache() const { return &plan_cache_; }

  /// Names of currently prepared statements (sorted).
  std::vector<std::string> PreparedStatementNames() const;

 private:
  /// A PREPAREd statement: the parsed body re-compiles on plan-cache
  /// misses, body_sql is its cache key, and the parser-counted
  /// positional-parameter count validates EXECUTE args.
  struct PreparedStatement {
    std::string name;  ///< as written (map key is lowercased)
    std::string body_sql;
    std::unique_ptr<AstBlob> body;
    int num_params = 0;
  };

  /// Runs a DDL/DML statement. CREATE VIEW moves the parsed body out of
  /// `stmt` into the catalog.
  Status ExecuteStatement(AstStatement& stmt);

  /// Lowers `blob` to QGM and runs the optimization pipeline with the
  /// sinks from `options` attached.
  Result<PipelineResult> OptimizeBlob(const AstBlob& blob,
                                      const QueryOptions& options);

  /// The one compile path behind SELECT, EXPLAIN, PREPARE and EXECUTE.
  /// With a non-empty `cache_sql` (the plan-cache key text) and an enabled
  /// cache it looks the plan up: a hit clones the cached graph; a miss runs
  /// OptimizeBlob and inserts the result, pinned to the current catalog
  /// versions, with `num_params` (-1: count the graph's `?` leaves). Then
  /// records the plan_cache.* metrics and the progress row estimate.
  /// Returns the chosen, plan-optimized graph (a private clone on a hit)
  /// and writes the §3.2 choice, the rule fires (none on a hit) and the
  /// cache outcome into *record.
  Result<std::unique_ptr<QueryGraph>> Compile(const AstBlob& blob,
                                              const std::string& cache_sql,
                                              int num_params,
                                              const QueryOptions& options,
                                              ProgressTracker* progress,
                                              QueryResult* record);

  /// The one execute path: runs `graph` under a governor built from
  /// `options` and fills *record (rows, exec/box stats, the decision
  /// audit). The governor stats are filled even when execution fails.
  /// `analyze` collects per-box stats for EXPLAIN ANALYZE. `progress` (may
  /// be null) receives live execution updates.
  Status Execute(QueryGraph* graph, const QueryOptions& options, bool analyze,
                 ProgressTracker* progress, QueryResult* record);

  /// EXPLAIN [ANALYZE]: compile, execute when ANALYZE, render the
  /// annotated plan into *record. `sql` is the full statement text — the
  /// plan-cache key when use_plan_cache is set.
  Status RunExplain(const AstExplain& ex, const std::string& sql,
                    const QueryOptions& options, ProgressTracker* progress,
                    QueryResult* record);

  /// Runs `fn` with sys.* names resolving against a snapshot of live
  /// engine state scoped to this call.
  template <typename Fn>
  auto WithSysSnapshot(const QueryOptions& options, Fn&& fn);

  /// The effective pipeline options for this query — what OptimizeBlob
  /// passes to the optimizer, minus the observability sinks. Feeds the
  /// plan-cache fingerprint.
  PipelineOptions EffectivePipelineOptions(const QueryOptions& options) const {
    PipelineOptions popts = options.pipeline;
    popts.strategy = options.strategy;
    return popts;
  }

  /// Query() minus the bookkeeping: parses and runs one statement, filling
  /// *record as far as it gets.
  Status QueryInternal(const std::string& sql, const QueryOptions& options,
                       ProgressTracker* progress, QueryResult* record);

  /// The one post-query writer: records a finished (non-internal) query's
  /// record in the query log, the rewrite totals, sys.box_stats and the
  /// exec.* / governor.* metrics of `options`.
  void RecordQuery(const std::string& sql, const QueryOptions& options,
                   const Status& status, const QueryResult& record);

  /// The engine state a sys.* snapshot for this query may read. `options`
  /// feeds sys.settings (lazily) and sys.governor's budget_* rows.
  SysEngineState MakeSysState(const QueryOptions& options) const;

  Catalog catalog_;
  QueryLog query_log_;
  SystemTableRegistry sys_registry_;
  /// Compiled-plan cache; internally locked (see PlanCache).
  PlanCache plan_cache_;
  /// PREPAREd statements by lowercased name. Coordinator-only.
  std::map<std::string, PreparedStatement> prepared_;
  /// In-flight query trackers (sys.active_queries). Internally locked.
  ProgressRegistry progress_;
  /// Guards the plain-data observability aggregates below
  /// (last_box_stats_, rewrite_totals_) against concurrent reads from the
  /// SnapshotSysTable path (the HTTP server thread). RecordQuery writes
  /// them at query end on the coordinator; the per-query sys snapshot path
  /// reads them from the same coordinator thread, so only the cross-thread
  /// snapshot needs the lock.
  mutable std::mutex obs_mu_;
  /// The box rows of the last successful EXPLAIN ANALYZE's record,
  /// retained for sys.box_stats so plan quality stays queryable.
  std::vector<SysBoxStatRow> last_box_stats_;
  /// Cumulative per-rule fires, attempts and wall time across all
  /// (non-internal) queries, keyed by rule name (the phase is unused) —
  /// the rows of sys.rewrite_rules. Database-side so the table works
  /// without an attached MetricsRegistry and so the nondeterministic wall
  /// times stay out of the deterministic counter namespace.
  std::map<std::string, RuleFireStats> rewrite_totals_;
};

}  // namespace starmagic

#endif  // STARMAGIC_ENGINE_DATABASE_H_
