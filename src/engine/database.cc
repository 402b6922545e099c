#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "exec/eval.h"
#include "optimizer/cardinality.h"
#include "qgm/builder.h"
#include "qgm/printer.h"
#include "sql/parser.h"

namespace starmagic {

namespace {

// Quantifier id used when evaluating UPDATE/DELETE expressions against a
// single table row (no query graph involved).
constexpr int kDmlQuantifier = 1;

// DML against the reserved sys schema — the same typed error the catalog
// returns for sys DDL, raised here because INSERT/UPDATE/DELETE would
// otherwise report NotFound (the write-path GetTable ignores sys names).
Status SysReadOnly(const std::string& name) {
  return Status::ReadOnly(
      StrCat("relation '", name, "' is in the reserved read-only 'sys' schema"));
}

// Lowers a (subquery-free) AST expression against `schema` into a QGM
// expression whose column references target kDmlQuantifier.
Result<ExprPtr> LowerDmlExpr(const AstExpr& e, const Schema& schema) {
  switch (e.kind) {
    case AstExprKind::kLiteral:
      return Expr::MakeLiteral(static_cast<const AstLiteral&>(e).value);
    case AstExprKind::kColumnRef: {
      const auto& ref = static_cast<const AstColumnRef&>(e);
      int col = schema.FindColumn(ref.column);
      if (col < 0) {
        return Status::SemanticError(
            StrCat("column '", ref.column, "' does not exist"));
      }
      return Expr::MakeColumnRef(kDmlQuantifier, col);
    }
    case AstExprKind::kBinary: {
      const auto& bin = static_cast<const AstBinary&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr lhs, LowerDmlExpr(*bin.lhs, schema));
      SM_ASSIGN_OR_RETURN(ExprPtr rhs, LowerDmlExpr(*bin.rhs, schema));
      return Expr::MakeBinary(bin.op, std::move(lhs), std::move(rhs));
    }
    case AstExprKind::kUnary: {
      const auto& un = static_cast<const AstUnary&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr operand, LowerDmlExpr(*un.operand, schema));
      return Expr::MakeUnary(un.op, std::move(operand));
    }
    case AstExprKind::kIsNull: {
      const auto& isn = static_cast<const AstIsNull&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr operand, LowerDmlExpr(*isn.operand, schema));
      return Expr::MakeIsNull(std::move(operand), isn.negated);
    }
    case AstExprKind::kLike: {
      const auto& like = static_cast<const AstLike&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr operand, LowerDmlExpr(*like.operand, schema));
      return Expr::MakeLike(std::move(operand), like.pattern, like.negated);
    }
    case AstExprKind::kBetween: {
      const auto& btw = static_cast<const AstBetween&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr operand, LowerDmlExpr(*btw.operand, schema));
      SM_ASSIGN_OR_RETURN(ExprPtr low, LowerDmlExpr(*btw.low, schema));
      SM_ASSIGN_OR_RETURN(ExprPtr high, LowerDmlExpr(*btw.high, schema));
      ExprPtr copy = operand->Clone();
      ExprPtr both = Expr::MakeBinary(
          BinaryOp::kAnd,
          Expr::MakeBinary(BinaryOp::kGtEq, std::move(copy), std::move(low)),
          Expr::MakeBinary(BinaryOp::kLtEq, std::move(operand),
                           std::move(high)));
      if (btw.negated) both = Expr::MakeUnary(UnaryOp::kNot, std::move(both));
      return both;
    }
    case AstExprKind::kInList: {
      const auto& in = static_cast<const AstInList&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr operand, LowerDmlExpr(*in.operand, schema));
      std::vector<ExprPtr> items;
      items.reserve(in.list.size());
      for (const AstExprPtr& item : in.list) {
        SM_ASSIGN_OR_RETURN(ExprPtr rhs, LowerDmlExpr(*item, schema));
        items.push_back(std::move(rhs));
      }
      return LowerInList(std::move(operand), std::move(items), in.negated);
    }
    default:
      return Status::NotSupported(
          "subqueries and aggregates are not allowed in UPDATE/DELETE");
  }
}

}  // namespace

Status Database::Execute(const std::string& sql) {
  SM_ASSIGN_OR_RETURN(std::unique_ptr<AstStatement> stmt, ParseStatement(sql));
  return ExecuteStatement(*stmt);
}

Status Database::ExecuteScript(const std::string& sql) {
  SM_ASSIGN_OR_RETURN(auto stmts, ParseScript(sql));
  for (auto& stmt : stmts) {
    SM_RETURN_IF_ERROR(ExecuteStatement(*stmt));
  }
  return Status::OK();
}

Status Database::ExecuteStatement(AstStatement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kCreateTable: {
      const auto& ct = static_cast<const AstCreateTable&>(stmt);
      return catalog_.CreateTable(ct.name, ct.schema);
    }
    case StatementKind::kCreateView: {
      auto& cv = static_cast<AstCreateView&>(stmt);
      ViewDefinition view;
      view.name = cv.name;
      view.column_names = cv.column_names;
      view.body_sql = cv.body_sql;
      view.body = std::move(cv.body);
      view.is_recursive = cv.recursive;
      return catalog_.CreateView(std::move(view));
    }
    case StatementKind::kCreateIndex: {
      const auto& ci = static_cast<const AstCreateIndex&>(stmt);
      return catalog_.CreateIndex(
          ci.name, ci.table, ci.columns,
          ci.ordered ? IndexKind::kOrdered : IndexKind::kHash);
    }
    case StatementKind::kDropIndex:
      return catalog_.DropIndex(static_cast<const AstDrop&>(stmt).name);
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const AstInsert&>(stmt);
      if (IsSysTableName(ins.table)) return SysReadOnly(ins.table);
      Table* table = catalog_.GetTable(ins.table);
      if (table == nullptr) {
        return Status::NotFound(StrCat("table '", ins.table, "' does not exist"));
      }
      for (const auto& row : ins.rows) {
        SM_RETURN_IF_ERROR(table->Append(row));
      }
      catalog_.MaintainAfterAppend(ins.table);
      return Status::OK();
    }
    case StatementKind::kUpdate: {
      const auto& up = static_cast<const AstUpdate&>(stmt);
      if (IsSysTableName(up.table)) return SysReadOnly(up.table);
      Table* table = catalog_.GetTable(up.table);
      if (table == nullptr) {
        return Status::NotFound(StrCat("table '", up.table, "' does not exist"));
      }
      const Schema& schema = table->schema();
      std::vector<int> target_cols;
      std::vector<ExprPtr> value_exprs;
      for (size_t i = 0; i < up.columns.size(); ++i) {
        int col = schema.FindColumn(up.columns[i]);
        if (col < 0) {
          return Status::NotFound(
              StrCat("column '", up.columns[i], "' does not exist"));
        }
        target_cols.push_back(col);
        SM_ASSIGN_OR_RETURN(ExprPtr value, LowerDmlExpr(*up.values[i], schema));
        value_exprs.push_back(std::move(value));
      }
      ExprPtr where;
      if (up.where != nullptr) {
        SM_ASSIGN_OR_RETURN(where, LowerDmlExpr(*up.where, schema));
      }
      RowEnv env;
      for (Row& row : table->mutable_rows()) {
        env.Bind(kDmlQuantifier, &row);
        if (where != nullptr) {
          SM_ASSIGN_OR_RETURN(TriBool keep, EvalPredicate(*where, env));
          if (keep != TriBool::kTrue) continue;
        }
        // Evaluate all new values against the pre-update row first.
        std::vector<Value> new_values;
        for (const ExprPtr& e : value_exprs) {
          SM_ASSIGN_OR_RETURN(Value v, EvalScalar(*e, env));
          if (!ValueMatchesType(v, schema.column(target_cols[new_values.size()]).type)) {
            return Status::InvalidArgument(
                StrCat("value ", v.ToString(), " does not match type of '",
                       schema.column(target_cols[new_values.size()]).name, "'"));
          }
          new_values.push_back(std::move(v));
        }
        for (size_t i = 0; i < target_cols.size(); ++i) {
          row[static_cast<size_t>(target_cols[i])] = std::move(new_values[i]);
        }
      }
      return catalog_.ReindexTable(up.table);
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const AstDelete&>(stmt);
      if (IsSysTableName(del.table)) return SysReadOnly(del.table);
      Table* table = catalog_.GetTable(del.table);
      if (table == nullptr) {
        return Status::NotFound(
            StrCat("table '", del.table, "' does not exist"));
      }
      ExprPtr where;
      if (del.where != nullptr) {
        SM_ASSIGN_OR_RETURN(where, LowerDmlExpr(*del.where, table->schema()));
      }
      auto& rows = table->mutable_rows();
      std::vector<Row> kept;
      kept.reserve(rows.size());
      RowEnv env;
      for (Row& row : rows) {
        bool remove = true;
        if (where != nullptr) {
          env.Bind(kDmlQuantifier, &row);
          SM_ASSIGN_OR_RETURN(TriBool match, EvalPredicate(*where, env));
          remove = match == TriBool::kTrue;
        }
        if (!remove) kept.push_back(std::move(row));
      }
      rows = std::move(kept);
      return catalog_.ReindexTable(del.table);
    }
    case StatementKind::kDropTable:
      return catalog_.DropTable(static_cast<const AstDrop&>(stmt).name);
    case StatementKind::kDropView:
      return catalog_.DropView(static_cast<const AstDrop&>(stmt).name);
    case StatementKind::kAnalyze: {
      const auto& an = static_cast<const AstAnalyze&>(stmt);
      return an.table.empty() ? catalog_.AnalyzeAll()
                              : catalog_.AnalyzeTable(an.table);
    }
    case StatementKind::kSelect:
      return Status::InvalidArgument(
          "SELECT statements must be run through Query()");
    case StatementKind::kExplain:
      return Status::InvalidArgument(
          "EXPLAIN statements must be run through Query()");
    case StatementKind::kPrepare:
      return Status::InvalidArgument(
          "PREPARE statements must be run through Query()");
    case StatementKind::kExecute:
      return Status::InvalidArgument(
          "EXECUTE statements must be run through Query()");
    case StatementKind::kDeallocate:
      return Status::InvalidArgument(
          "DEALLOCATE statements must be run through Query()");
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::SetPrimaryKey(const std::string& table,
                               const std::vector<std::string>& columns) {
  Table* t = catalog_.GetTable(table);
  if (t == nullptr) {
    return Status::NotFound(StrCat("table '", table, "' does not exist"));
  }
  std::vector<int> key;
  for (const std::string& col : columns) {
    int idx = t->schema().FindColumn(col);
    if (idx < 0) {
      return Status::NotFound(
          StrCat("column '", col, "' does not exist in '", table, "'"));
    }
    key.push_back(idx);
  }
  t->SetPrimaryKey(std::move(key));
  return Status::OK();
}

Result<PipelineResult> Database::OptimizeBlob(const AstBlob& blob,
                                              const QueryOptions& options) {
  QgmBuilder builder(&catalog_);
  SM_ASSIGN_OR_RETURN(std::unique_ptr<QueryGraph> graph, builder.Build(blob));
  PipelineOptions popts = options.pipeline;
  popts.strategy = options.strategy;
  if (options.tracer != nullptr) popts.tracer = options.tracer;
  if (options.metrics != nullptr) popts.metrics = options.metrics;
  return OptimizeQuery(std::move(graph), &catalog_, popts);
}

// Per-query sys.* snapshot: each referenced system table materializes
// once, at its first scan, from live engine state, and the snapshot dies
// when `fn` returns.
template <typename Fn>
auto Database::WithSysSnapshot(const QueryOptions& options, Fn&& fn) {
  SysSnapshot snapshot(catalog_.system_registry(), MakeSysState(options));
  std::optional<SysSnapshotScope> scope;
  if (catalog_.system_registry() != nullptr) {
    scope.emplace(&catalog_, &snapshot);
  }
  return fn();
}

Result<PipelineResult> Database::Explain(const std::string& sql,
                                         const QueryOptions& options) {
  SM_ASSIGN_OR_RETURN(std::unique_ptr<AstBlob> blob, ParseQuery(sql));
  // Callers inspect the returned graph (box counts, phase snapshots); to
  // run a query, and time, govern and log the run, they call Query(). The
  // graph's sys base tables are gone once this returns, so the few tests
  // that still execute it must not reference sys tables.
  return WithSysSnapshot(options,
                         [&] { return OptimizeBlob(*blob, options); });
}

namespace {

// Plan-cache outcome counters. Invalidation and eviction are charged to
// the query that observed them (the lookup that dropped the stale entry /
// the insert that pushed one out), keeping the counters deterministic.
void RecordPlanCacheMetrics(MetricsRegistry* metrics, bool hit,
                            bool invalidated, int evictions) {
  if (metrics == nullptr) return;
  metrics->counter(hit ? "plan_cache.hits" : "plan_cache.misses")->Add(1);
  if (invalidated) metrics->counter("plan_cache.invalidations")->Add(1);
  if (evictions > 0) metrics->counter("plan_cache.evictions")->Add(evictions);
}

// Wall-clock-side parallel counters; skipped entirely for sequential runs
// so single-threaded metric dumps stay unchanged.
void RecordParallelMetrics(MetricsRegistry* metrics,
                           const ParallelStats& stats) {
  if (metrics == nullptr || stats.tasks == 0) return;
  metrics->counter("parallel.tasks")->Add(stats.tasks);
  metrics->counter("parallel.morsels")->Add(stats.morsels);
  metrics->counter("parallel.morsels_stolen")->Add(stats.morsels_stolen);
  metrics->counter("parallel.worker_busy_us")->Add(stats.worker_busy_us);
  metrics->counter("parallel.barrier_wait_us")->Add(stats.barrier_wait_us);
}

// Histogram suffix for per-box-type Q-error accounting. Magic-role boxes
// are bucketed together regardless of kind: their estimates come from the
// EMST-specific magic-cardinality path, which is what we want to watch.
const char* QErrorLabel(const Box& box) {
  if (box.IsMagicRole()) return "magic";
  switch (box.kind()) {
    case BoxKind::kBaseTable: return "basetable";
    case BoxKind::kSelect: return "select";
    case BoxKind::kGroupBy: return "groupby";
    case BoxKind::kSetOp: return "setop";
    case BoxKind::kCustom: return "custom";
  }
  return "unknown";
}

// The runtime stats EXPLAIN ANALYZE recorded for `box`, or nullptr when it
// never ran: computed boxes from QueryResult::box_stats, base tables from
// QueryResult::table_stats.
const BoxExecStats* RuntimeStats(const QueryResult& record, const Box& box) {
  const std::map<int, BoxExecStats>& stats =
      box.kind() == BoxKind::kBaseTable ? record.table_stats
                                        : record.box_stats;
  auto it = stats.find(box.id());
  return it == stats.end() ? nullptr : &it->second;
}

// Folds EXPLAIN ANALYZE's per-box estimated-vs-actual row counts into
// per-box-type Q-error histograms ("qerror.select", "qerror.magic", ...)
// and warns about base tables whose statistics are stale. Warning lines
// are appended to *warnings for the report.
void RecordQErrors(const QueryGraph& graph, const Catalog* catalog,
                   CardinalityEstimator* estimator, const QueryResult& record,
                   MetricsRegistry* metrics, Tracer* tracer,
                   std::string* warnings) {
  for (const Box* box : graph.boxes()) {
    const BoxExecStats* b = RuntimeStats(record, *box);
    if (b == nullptr || b->evaluations == 0) continue;
    // A base table's estimate is its row count, which only a full scan
    // measures; rows fetched by index probes are not comparable.
    if (box->kind() == BoxKind::kBaseTable && b->probes > 0) continue;
    // Estimates are per evaluation; a correlated box accumulates rows_out
    // across every binding, so compare against the per-evaluation mean.
    double actual = static_cast<double>(b->rows_out) /
                    static_cast<double>(b->evaluations);
    double estimated = estimator->Estimate(box).rows;
    if (metrics != nullptr) {
      metrics->histogram(StrCat("qerror.", QErrorLabel(*box)))
          ->Observe(QError(estimated, actual));
    }
  }

  std::set<std::string> stale;
  for (const Box* box : graph.boxes()) {
    if (box->kind() != BoxKind::kBaseTable) continue;
    if (catalog->StatsStale(box->table_name())) stale.insert(box->table_name());
  }
  for (const std::string& table : stale) {
    if (metrics != nullptr) metrics->counter("optimizer.stale_stats")->Add(1);
    if (tracer != nullptr && tracer->enabled()) {
      tracer->AddEvent("stats.stale", "optimizer", {{"table", table}});
    }
    *warnings += StrCat("warning: statistics for '", table,
                        "' are stale (version ", catalog->TableVersion(table),
                        ", last ANALYZE ", catalog->LastAnalyzeVersion(table),
                        ")\n");
  }
}

// The sys.box_stats rows of one EXPLAIN ANALYZE, in box-id order.
std::vector<SysBoxStatRow> BoxStatRows(const QueryGraph& graph,
                                       CardinalityEstimator* estimator,
                                       const QueryResult& record) {
  std::vector<SysBoxStatRow> rows;
  for (const Box* box : graph.boxes()) {
    SysBoxStatRow row;
    row.box_id = box->id();
    row.kind = BoxKindName(box->kind());
    row.label = box->label();
    row.est_rows = estimator->Estimate(box).rows;
    if (const BoxExecStats* b = RuntimeStats(record, *box)) {
      row.act_rows = b->rows_out;
      row.evaluations = b->evaluations;
      row.cache_hits = b->cache_hits;
      row.probes = b->probes;
      row.wall_ms = b->wall_ms;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const SysBoxStatRow& a, const SysBoxStatRow& b) {
              return a.box_id < b.box_id;
            });
  return rows;
}

}  // namespace

Status Database::Execute(QueryGraph* graph, const QueryOptions& options,
                         bool analyze, ProgressTracker* progress,
                         QueryResult* record) {
  ResourceGovernor governor(options.budget, options.cancel_token);
  ExecOptions exec_options;
  exec_options.memoize_correlation =
      options.strategy != ExecutionStrategy::kCorrelated;
  exec_options.tracer = options.tracer;
  exec_options.collect_box_stats = analyze;
  exec_options.num_threads = options.num_threads;
  exec_options.morsel_size = options.morsel_size;
  exec_options.governor = &governor;
  exec_options.progress = progress;
  if (progress != nullptr) progress->SetPhase(QueryPhase::kExecute);
  Executor executor(graph, &catalog_, exec_options);
  // Not SM_ASSIGN_OR_RETURN: the record keeps the governor stats of a
  // failing run too — aborted queries are exactly the ones the governor
  // dashboards exist for.
  auto start = std::chrono::steady_clock::now();
  Result<Table> run = executor.Run();
  record->exec_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  RecordParallelMetrics(options.metrics, executor.parallel_stats());
  record->executed = true;
  record->governor = governor.Stats();
  SM_RETURN_IF_ERROR(run.status());

  record->table = std::move(*run);
  record->exec_stats = executor.stats();
  record->box_stats = executor.box_stats();
  record->table_stats = executor.table_stats();
  record->result_rows = record->table.num_rows();
  if (options.capture_plan_report) record->plan_report = PrintGraph(*graph);
  if (record->emst_applied) {
    record->decision_audit = AuditPlanDecision(
        record->cost_no_emst, record->cost_with_emst, record->emst_chosen,
        record->exec_stats.TotalWork(), kMispredictRatio, options.metrics,
        options.tracer);
    record->decision_audited = true;
  }
  return Status::OK();
}

namespace {

// Packs a multi-line report into a one-string-column table so EXPLAIN
// results flow through the same channel as query rows.
Table ReportTable(const std::string& report) {
  Schema schema;
  schema.AddColumn({"explain", ColumnType::kString});
  Table table("", schema);
  size_t start = 0;
  while (start < report.size()) {
    size_t end = report.find('\n', start);
    if (end == std::string::npos) end = report.size();
    table.mutable_rows().push_back(
        Row{Value::String(report.substr(start, end - start))});
    start = end + 1;
  }
  return table;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

// Highest parameter index present in the graph, plus one — the number of
// bindings an EXECUTE must supply for this plan.
int CountParams(const QueryGraph& graph) {
  int max_index = -1;
  auto scan = [&max_index](const Expr* e) {
    if (e == nullptr) return;
    e->Visit([&max_index](const Expr& x) {
      if (x.kind == ExprKind::kParameter) {
        max_index = std::max(max_index, x.param_index);
      }
    });
  };
  for (const Box* box : graph.boxes()) {
    for (const ExprPtr& p : box->predicates()) scan(p.get());
    for (const OutputColumn& o : box->outputs()) scan(o.expr.get());
  }
  return max_index + 1;
}

}  // namespace


Result<std::unique_ptr<QueryGraph>> Database::Compile(
    const AstBlob& blob, const std::string& cache_sql, int num_params,
    const QueryOptions& options, ProgressTracker* progress,
    QueryResult* record) {
  const bool use_cache = !cache_sql.empty() && plan_cache_.enabled();
  std::string norm_sql;
  std::string fingerprint;
  PlanCache::LookupResult lookup;
  if (use_cache) {
    norm_sql = PlanCache::NormalizeSql(cache_sql);
    fingerprint = PlanCache::Fingerprint(EffectivePipelineOptions(options));
    lookup = plan_cache_.Lookup(norm_sql, fingerprint, catalog_);
  }
  std::unique_ptr<QueryGraph> graph;
  PlanChoice& choice = *record;
  int evictions = 0;
  if (lookup.plan != nullptr) {
    // rule_fires stays empty: no rewrite rule runs on the cached path, and
    // tests assert exactly that.
    graph = lookup.plan->graph->Clone();
    choice = *lookup.plan;
    record->plan_cache_hit = true;
  } else {
    SM_ASSIGN_OR_RETURN(PipelineResult pipeline, OptimizeBlob(blob, options));
    graph = std::move(pipeline.graph);
    choice = pipeline;
    record->rule_fires = std::move(pipeline.rule_fires);
    // Plans over sys.* tables are never cached: those materialize per
    // query, so no version pin makes them reusable.
    if (use_cache && !ReferencesSysTables(*graph)) {
      CachedPlan entry;
      entry.graph = graph->Clone();
      static_cast<PlanChoice&>(entry) = choice;
      entry.num_params = num_params >= 0 ? num_params : CountParams(*graph);
      for (const std::string& table : ReferencedBaseTables(*graph)) {
        entry.pins.push_back({table, catalog_.TableVersion(table),
                              catalog_.LastAnalyzeVersion(table)});
      }
      entry.ddl_version = catalog_.ddl_version();
      entry.normalized_sql = std::move(norm_sql);
      entry.fingerprint = std::move(fingerprint);
      evictions = plan_cache_.Insert(std::move(entry));
    }
  }
  if (use_cache) {
    RecordPlanCacheMetrics(options.metrics, record->plan_cache_hit,
                           lookup.invalidated, evictions);
  }
  if (progress != nullptr && graph->top() != nullptr) {
    CardinalityEstimator est(graph.get(), &catalog_);
    progress->SetEstRows(est.Estimate(graph->top()).rows);
  }
  return graph;
}

Status Database::RunExplain(const AstExplain& ex, const std::string& sql,
                            const QueryOptions& options,
                            ProgressTracker* progress, QueryResult* record) {
  SM_ASSIGN_OR_RETURN(std::unique_ptr<QueryGraph> graph,
                      Compile(*ex.query, options.use_plan_cache ? sql : "",
                              /*num_params=*/-1, options, progress, record));
  if (ex.analyze) {
    SM_RETURN_IF_ERROR(
        Execute(graph.get(), options, /*analyze=*/true, progress, record));
  }

  std::string report =
      StrCat(ex.analyze ? "EXPLAIN ANALYZE" : "EXPLAIN",
             " strategy=", StrategyName(options.strategy),
             " C1=", FormatDouble(record->cost_no_emst),
             " C2=", FormatDouble(record->cost_with_emst),
             " emst_chosen=", record->emst_chosen ? "true" : "false",
             " threads=", options.num_threads,
             " plan_cache=", record->plan_cache_hit ? "hit" : "miss", "\n");
  if (!record->rule_fires.empty()) {
    report += "rule fires:\n";
    report += RuleFireTable(record->rule_fires);
  }

  // One estimator behind the annotated plan, the sys.box_stats rows and
  // the Q-error histograms.
  CardinalityEstimator estimator(graph.get(), &catalog_);
  report += PrintGraphAnnotated(
      *graph, [&](const Box& box) -> std::string {
        std::string note =
            StrCat("est_rows=", FormatDouble(estimator.Estimate(&box).rows));
        if (!ex.analyze) return note;
        const BoxExecStats* b = RuntimeStats(*record, box);
        if (b == nullptr) return StrCat(note, " (not evaluated)");
        return StrCat(note, " act_rows=", b->rows_out, " evals=",
                      b->evaluations, " cache_hits=", b->cache_hits,
                      " probes=", b->probes, " time_ms=", FormatMs(b->wall_ms));
      });

  if (ex.analyze) {
    record->box_rows = BoxStatRows(*graph, &estimator, *record);
    report += StrCat("exec: ", record->exec_stats.ToString(), "\n");
    report += StrCat("governor: budget=", options.budget.ToString(),
                     " peak_bytes=", record->governor.peak_bytes,
                     " cancel_checks=", record->governor.cancel_checks, "\n");
    if (record->decision_audited) {
      report += StrCat("decision audit: ", record->decision_audit.ToString(),
                       "\n");
    }
    RecordQErrors(*graph, &catalog_, &estimator, *record, options.metrics,
                  options.tracer, &report);
  }
  record->analyze_report = report;
  record->table = ReportTable(report);
  return Status::OK();
}

Status Database::QueryInternal(const std::string& sql,
                               const QueryOptions& options,
                               ProgressTracker* progress,
                               QueryResult* record) {
  SM_ASSIGN_OR_RETURN(std::unique_ptr<AstStatement> stmt, ParseStatement(sql));
  if (progress != nullptr) progress->SetPhase(QueryPhase::kOptimize);
  switch (stmt->kind) {
    case StatementKind::kSelect: {
      const auto& select = static_cast<const AstSelectStatement&>(*stmt);
      SM_ASSIGN_OR_RETURN(
          std::unique_ptr<QueryGraph> graph,
          Compile(*select.blob, options.use_plan_cache ? sql : "",
                  /*num_params=*/-1, options, progress, record));
      return Execute(graph.get(), options, /*analyze=*/false, progress,
                     record);
    }
    case StatementKind::kExplain: {
      const auto& ex = static_cast<const AstExplain&>(*stmt);
      record->kind = ex.analyze ? "explain-analyze" : "explain";
      return RunExplain(ex, sql, options, progress, record);
    }
    case StatementKind::kPrepare: {
      record->kind = "prepare";
      auto& prep = static_cast<AstPrepare&>(*stmt);
      std::string key = ToLower(prep.name);
      if (prepared_.count(key) > 0) {
        return Status::AlreadyExists(
            StrCat("prepared statement '", prep.name, "' already exists"));
      }
      // Compile once, now: PREPARE both validates the body and warms the
      // plan cache, so the first EXECUTE already skips the pipeline.
      SM_RETURN_IF_ERROR(Compile(*prep.body, prep.body_sql, prep.num_params,
                                 options, progress, record)
                             .status());
      record->table = ReportTable(StrCat("PREPARE ", prep.name));
      prepared_[key] = PreparedStatement{prep.name, prep.body_sql,
                                         std::move(prep.body),
                                         prep.num_params};
      return Status::OK();
    }
    case StatementKind::kExecute: {
      record->kind = "execute";
      const auto& exec = static_cast<const AstExecute&>(*stmt);
      auto it = prepared_.find(ToLower(exec.name));
      if (it == prepared_.end()) {
        return Status::NotFound(
            StrCat("prepared statement '", exec.name, "' does not exist"));
      }
      const PreparedStatement& prepared = it->second;
      if (static_cast<int>(exec.args.size()) != prepared.num_params) {
        return Status::InvalidArgument(StrCat(
            "prepared statement '", exec.name, "' expects ",
            prepared.num_params, " parameter(s), got ", exec.args.size()));
      }
      SM_ASSIGN_OR_RETURN(std::unique_ptr<QueryGraph> graph,
                          Compile(*prepared.body, prepared.body_sql,
                                  prepared.num_params, options, progress,
                                  record));
      SM_RETURN_IF_ERROR(BindParameters(graph.get(), exec.args));
      return Execute(graph.get(), options, /*analyze=*/false, progress,
                     record);
    }
    case StatementKind::kDeallocate: {
      record->kind = "deallocate";
      const auto& de = static_cast<const AstDeallocate&>(*stmt);
      if (prepared_.erase(ToLower(de.name)) == 0) {
        return Status::NotFound(
            StrCat("prepared statement '", de.name, "' does not exist"));
      }
      record->table = ReportTable(StrCat("DEALLOCATE ", de.name));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          "only SELECT, EXPLAIN, PREPARE, EXECUTE, and DEALLOCATE can be run "
          "through Query(); use Execute() for DDL/DML");
  }
}

std::vector<std::string> Database::PreparedStatementNames() const {
  std::vector<std::string> names;
  names.reserve(prepared_.size());
  for (const auto& [key, prep] : prepared_) names.push_back(prep.name);
  return names;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const QueryOptions& options) {
  auto start = std::chrono::steady_clock::now();
  // Internal introspection queries observe without perturbing the state
  // they read: no metrics from any stage, no budget (a tiny session row
  // limit must not abort the dashboard displaying it), no cancellation,
  // and no record below.
  QueryOptions effective = options;
  if (options.internal) {
    effective.metrics = nullptr;
    effective.budget = ResourceBudget::Unlimited();
    effective.cancel_token = nullptr;
  }
  // Live-progress registration: the query is visible in sys.active_queries
  // (and GET /sys/active_queries) for exactly the duration of this scope.
  // Internal observer queries never register — the dashboard does not
  // watch itself.
  ProgressScope progress_scope(options.internal ? nullptr : &progress_, sql);
  QueryResult record;
  // The sys.* snapshot reads the options as passed, and it dies before the
  // record is written — so a query over sys.query_log sees every *prior*
  // query but never itself.
  Status status = WithSysSnapshot(options, [&] {
    return QueryInternal(sql, effective, progress_scope.tracker(), &record);
  });
  record.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (!options.internal) RecordQuery(sql, effective, status, record);
  if (!status.ok()) return status;
  return record;
}

void Database::RecordQuery(const std::string& sql, const QueryOptions& options,
                           const Status& status, const QueryResult& record) {
  if (MetricsRegistry* metrics = options.metrics;
      metrics != nullptr && record.executed) {
    // Governor outcome for every execution, aborted ones included; the
    // abort reason is the typed Status the caller sees.
    metrics->histogram("governor.peak_bytes")
        ->Observe(static_cast<double>(record.governor.peak_bytes));
    metrics->counter("governor.cancel_checks")
        ->Add(record.governor.cancel_checks);
    switch (status.code()) {
      case StatusCode::kCancelled:
        metrics->counter("governor.aborts.cancelled")->Add(1);
        break;
      case StatusCode::kDeadlineExceeded:
        metrics->counter("governor.aborts.deadline_exceeded")->Add(1);
        break;
      case StatusCode::kResourceExhausted:
        metrics->counter("governor.aborts.resource_exhausted")->Add(1);
        break;
      default:
        break;
    }
    if (status.ok()) {
      const ExecStats& stats = record.exec_stats;
      metrics->counter("query.executions")->Add(1);
      metrics->counter("exec.rows_produced")->Add(stats.rows_produced);
      metrics->counter("exec.cache_hits")->Add(stats.cache_hits);
      metrics->counter("exec.cache_misses")->Add(stats.cache_misses);
      metrics->counter("exec.work")->Add(stats.TotalWork());
      metrics->histogram("exec.rows_per_query")
          ->Observe(static_cast<double>(record.result_rows));
    }
  }

  // A query that failed after compiling keeps its §3.2 choice and rule
  // fires; work and rows stay 0 unless it ran to completion.
  QueryLogEntry entry;
  static_cast<PlanChoice&>(entry) = record;
  entry.sql = sql;
  entry.kind = record.kind;
  entry.strategy = StrategyName(options.strategy);
  if (!status.ok()) entry.status = status.ToString();
  entry.total_work = record.exec_stats.TotalWork();
  entry.rows = record.result_rows;
  entry.wall_ms = record.wall_ms;
  entry.peak_memory_bytes = record.governor.peak_bytes;
  {
    // obs_mu_ orders these writes against SnapshotSysTable fills from the
    // HTTP server thread.
    std::lock_guard<std::mutex> obs_lock(obs_mu_);
    for (const RuleFireStats& f : record.rule_fires) {
      if (f.fires > 0) entry.rule_fires.push_back(f);
      RuleFireStats& totals = rewrite_totals_[f.rule];
      totals.fires += f.fires;
      totals.attempts += f.attempts;
      totals.wall_ms += f.wall_ms;
    }
    if (!record.box_rows.empty()) last_box_stats_ = record.box_rows;
  }
  query_log_.Record(std::move(entry));
}

SysEngineState Database::MakeSysState(const QueryOptions& options) const {
  SysEngineState state;
  state.catalog = &catalog_;
  state.query_log = &query_log_;
  state.metrics = options.metrics;
  state.registry = &sys_registry_;
  state.budget = options.budget;
  state.box_stats = &last_box_stats_;
  state.rewrite_rules = &rewrite_totals_;
  state.progress = &progress_;
  state.plan_cache = &plan_cache_;
  // Lazy: only a query that actually scans sys.settings pays for this.
  // QueryOptions is captured by value (it holds plain fields + borrowed
  // pointers), so the closure outlives the options reference.
  QueryOptions opts = options;
  state.settings_fn = [opts]() {
    std::vector<SysSettingRow> rows;
    auto add = [&rows](const char* name, std::string value,
                       const char* source) {
      rows.push_back({name, std::move(value), source});
    };
    add("capture_plan_report", opts.capture_plan_report ? "true" : "false",
        "QueryOptions");
    add("internal", opts.internal ? "true" : "false", "QueryOptions");
    add("metrics_attached", opts.metrics != nullptr ? "true" : "false",
        "QueryOptions");
    add("morsel_size", StrCat(opts.morsel_size), "QueryOptions");
    add("num_threads", StrCat(opts.num_threads), "QueryOptions");
    add("strategy", StrategyName(opts.strategy), "QueryOptions");
    add("tracer_attached",
        opts.tracer != nullptr && opts.tracer->enabled() ? "true" : "false",
        "QueryOptions");
    add("use_plan_cache", opts.use_plan_cache ? "true" : "false",
        "QueryOptions");
    for (const char* name :
         {"STARMAGIC_BENCH_SMOKE", "STARMAGIC_THREADS", "STARMAGIC_TRACE"}) {
      const char* v = std::getenv(name);
      add(name, v == nullptr ? "(unset)" : v, "env");
    }
    return rows;
  };
  return state;
}

Result<Table> Database::SnapshotSysTable(const std::string& name,
                                         const QueryOptions& options) const {
  const SystemTableDef* def = sys_registry_.Find(name);
  if (def == nullptr) {
    return Status::NotFound(StrCat("unknown system table '", name, "'"));
  }
  SysEngineState state = MakeSysState(options);
  Table table(def->name, def->schema);
  // The fill may read last_box_stats_ / rewrite_totals_ — plain aggregates
  // written at query end under the same lock. Everything else it touches
  // (metrics, query log, progress) is internally locked or atomic.
  std::lock_guard<std::mutex> lock(obs_mu_);
  if (def->fill != nullptr) table.mutable_rows() = def->fill(state);
  return table;
}

}  // namespace starmagic
