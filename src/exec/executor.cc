#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "governor/governor.h"
#include "sys/system_tables.h"

namespace starmagic {

namespace {

// Governor charge for one joined row combination of `arity` rows: what a
// combination held as its own vector of row pointers would occupy. The
// charge is content-based (arity only), so the charge for a step's
// combinations is identical whether they were produced sequentially or by
// any number of workers — the peak-bytes determinism contract depends on
// this.
int64_t ComboBytes(int arity) {
  return static_cast<int64_t>(sizeof(std::vector<const Row*>) +
                              static_cast<size_t>(arity) * sizeof(const Row*));
}

// Positions in a vector of rows, hashed and compared by the rows' grouping
// equality (NULL equals NULL): duplicate elimination without copying each
// row into a map. The rows at inserted positions must stay put.
class RowPositionSet {
 public:
  explicit RowPositionSet(const std::vector<Row>* rows)
      : set_(0, Hash{rows}, Eq{rows}) {}
  /// True when no equal row's position was inserted before.
  bool Insert(size_t position) { return set_.insert(position).second; }

 private:
  struct Hash {
    const std::vector<Row>* rows;
    size_t operator()(size_t i) const { return HashRow((*rows)[i]); }
  };
  struct Eq {
    const std::vector<Row>* rows;
    bool operator()(size_t a, size_t b) const {
      return RowsEqualGrouping((*rows)[a], (*rows)[b]);
    }
  };
  std::unordered_set<size_t, Hash, Eq> set_;
};

// Fills *key with the values of `exprs` under `env`: the probe key of an
// equality join step, built in a buffer each morsel reuses.
Status EvalKey(const std::vector<const Expr*>& exprs, const RowEnv& env,
               Row* key) {
  key->resize(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    Value& slot = (*key)[i];
    SM_ASSIGN_OR_RETURN(const Value* v, EvalRef(*exprs[i], env, &slot));
    if (v != &slot) slot = *v;
  }
  return Status::OK();
}

}  // namespace

void ExecStats::MergeFrom(const ExecStats& other) {
  rows_scanned += other.rows_scanned;
  rows_produced += other.rows_produced;
  join_probes += other.join_probes;
  box_evaluations += other.box_evaluations;
  fixpoint_iterations += other.fixpoint_iterations;
  index_probes += other.index_probes;
  index_rows_fetched += other.index_rows_fetched;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
}

std::string ExecStats::ToString() const {
  return StrCat("scanned=", rows_scanned, " produced=", rows_produced,
                " probes=", join_probes, " evals=", box_evaluations,
                " fixpoint_iters=", fixpoint_iterations,
                " index_probes=", index_probes,
                " index_fetched=", index_rows_fetched,
                " cache_hits=", cache_hits, " cache_misses=", cache_misses,
                " work=", TotalWork());
}

Executor::Executor(QueryGraph* graph, const Catalog* catalog,
                   ExecOptions options)
    : graph_(graph), catalog_(catalog), options_(options) {
  if (options_.governor == nullptr) {
    owned_governor_ =
        std::make_unique<ResourceGovernor>(ResourceBudget::Unlimited());
    options_.governor = owned_governor_.get();
  }
  for (const Box* box : graph_->boxes()) {
    for (const auto& q : box->quantifiers()) {
      num_slots_ = std::max(num_slots_, q->id + 1);
    }
  }
  strata_ = graph_->ComputeStrata();
  for (int box_id : strata_.recursive_boxes) {
    scc_members_[strata_.scc_id[box_id]].push_back(box_id);
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<WorkerPool>(options_.num_threads,
                                         options_.tracer,
                                         options_.governor,
                                         options_.progress);
  }
}

Executor::~Executor() {
  // Coordinator-side (the executor is created and destroyed on the query's
  // coordinator thread); the workers are already joined via pool_'s
  // destruction order. Aborted queries may have reserved bytes that never
  // reached cache_charged_bytes_ — releasing less than was reserved is
  // safe, over-releasing never happens.
  options_.governor->Release(cache_charged_bytes_);
}

Status Executor::ParallelAppend(
    int64_t n, int arity,
    const std::function<Status(int64_t begin, int64_t end, ComboVec* out,
                               ExecStats* stats)>& body,
    ComboVec* next, int64_t* charged_bytes) {
  const int64_t morsel_size = std::max<int64_t>(1, options_.morsel_size);
  const int64_t num_morsels = (n + morsel_size - 1) / morsel_size;
  std::vector<ComboVec> buffers(static_cast<size_t>(num_morsels));
  std::vector<ExecStats> worker_stats(
      static_cast<size_t>(pool_->num_threads()));
  ResourceGovernor* gov = options_.governor;
  std::atomic<int64_t> charged{0};
  Status status = pool_->ForEachMorsel(
      n, morsel_size,
      [&](int64_t morsel, int64_t begin, int64_t end, int worker) {
        ComboVec* out = &buffers[static_cast<size_t>(morsel)];
        SM_RETURN_IF_ERROR(body(begin, end, out,
                                &worker_stats[static_cast<size_t>(worker)]));
        // Charge this morsel's buffer as it completes. Within the step
        // reservations only grow and the per-combo charge is content-based,
        // so the step's byte total — and thus the governor's peak — is
        // identical at any thread count.
        const int64_t bytes =
            static_cast<int64_t>(out->size()) * ComboBytes(arity);
        charged.fetch_add(bytes, std::memory_order_relaxed);
        return gov->Reserve(bytes);
      });
  *charged_bytes += charged.load(std::memory_order_relaxed);
  // Merge worker counters even on error, mirroring the partial counts a
  // failing sequential loop leaves behind (totals only matter on success).
  for (const ExecStats& ws : worker_stats) stats_.MergeFrom(ws);
  SM_RETURN_IF_ERROR(status);
  size_t total = next->size();
  for (const ComboVec& buffer : buffers) total += buffer.size();
  if (static_cast<int64_t>(total) > options_.max_rows_per_box) {
    return Status::ExecutionError("row limit exceeded during join");
  }
  next->reserve(total);
  for (const ComboVec& buffer : buffers) {
    next->insert(next->end(), buffer.begin(), buffer.end());
  }
  return Status::OK();
}

namespace {

// Infers a display type for each output column from the first non-null
// value (results are dynamically typed internally).
Schema InferSchema(const Box& box, const std::vector<Row>& rows) {
  Schema schema;
  for (int c = 0; c < box.NumOutputs(); ++c) {
    ColumnType type = ColumnType::kInt;
    for (const Row& row : rows) {
      const Value& v = row[static_cast<size_t>(c)];
      if (v.is_null()) continue;
      switch (v.kind()) {
        case ValueKind::kBool:
          type = ColumnType::kBool;
          break;
        case ValueKind::kInt:
          type = ColumnType::kInt;
          break;
        case ValueKind::kDouble:
          type = ColumnType::kDouble;
          break;
        case ValueKind::kString:
          type = ColumnType::kString;
          break;
        default:
          break;
      }
      break;
    }
    schema.AddColumn({box.outputs()[static_cast<size_t>(c)].name, type});
  }
  return schema;
}

}  // namespace

Result<Table> Executor::Run() {
  SpanScope run_span(options_.tracer, "execute", "exec");
  Box* top = graph_->top();
  if (top == nullptr) return Status::Internal("query graph has no top box");
  RowEnv env(num_slots_);
  Table scratch;
  SM_ASSIGN_OR_RETURN(const Table* result, EvalBox(top, env, &scratch));
  // The scratch table and the box cache die with this executor, so their
  // rows are moved out (the cache entry goes too, so a later lookup
  // recomputes instead of finding it empty); a stored table is copied.
  std::vector<Row> rows;
  auto cached = cache_.find(top->id());
  if (result == &scratch) {
    rows = std::move(scratch.mutable_rows());
  } else if (cached != cache_.end() && result == &cached->second) {
    rows = std::move(cached->second.mutable_rows());
    cache_.erase(cached);
  } else {
    rows = result->rows();
  }
  if (!graph_->order_by.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [this](const Row& a, const Row& b) {
                       for (const OrderSpec& spec : graph_->order_by) {
                         int c = Value::CompareTotal(
                             a[static_cast<size_t>(spec.column)],
                             b[static_cast<size_t>(spec.column)]);
                         if (c != 0) return spec.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (graph_->limit.has_value() &&
      static_cast<int64_t>(rows.size()) > *graph_->limit) {
    rows.resize(static_cast<size_t>(*graph_->limit));
  }
  Table out("", InferSchema(*top, rows));
  out.mutable_rows() = std::move(rows);
  run_span.SetAttribute("rows_out", out.num_rows());
  run_span.SetAttribute("rows_produced", stats_.rows_produced);
  run_span.SetAttribute("cache_hits", stats_.cache_hits);
  run_span.SetAttribute("work", stats_.TotalWork());
  return out;
}

const std::vector<std::pair<int, int>>& Executor::ExternalRefs(Box* box) {
  auto it = ext_refs_.find(box->id());
  if (it != ext_refs_.end()) return it->second;

  std::set<int> subtree_qids;
  std::set<int> seen;
  std::vector<Box*> stack{box};
  std::vector<Box*> subtree;
  while (!stack.empty()) {
    Box* b = stack.back();
    stack.pop_back();
    if (!seen.insert(b->id()).second) continue;
    subtree.push_back(b);
    for (const auto& q : b->quantifiers()) {
      subtree_qids.insert(q->id);
      if (q->input != nullptr) stack.push_back(q->input);
    }
  }
  std::set<std::pair<int, int>> pairs;
  for (Box* b : subtree) {
    auto scan = [&](const Expr& e) {
      e.Visit([&](const Expr& node) {
        if (node.kind == ExprKind::kColumnRef && node.quantifier_id >= 0 &&
            !subtree_qids.count(node.quantifier_id)) {
          pairs.emplace(node.quantifier_id, node.column_index);
        }
      });
    };
    for (const ExprPtr& p : b->predicates()) scan(*p);
    for (const OutputColumn& out : b->outputs()) {
      if (out.expr != nullptr) scan(*out.expr);
    }
  }
  return ext_refs_
      .emplace(box->id(),
               std::vector<std::pair<int, int>>(pairs.begin(), pairs.end()))
      .first->second;
}

Result<Row> Executor::BindingKey(Box* box, const RowEnv& env) {
  Row key;
  for (const auto& [qid, col] : ExternalRefs(box)) {
    const Row* row = env.Lookup(qid);
    if (row == nullptr) {
      return Status::Internal(
          StrCat("correlated box ", box->DebugId(), " evaluated without a ",
                 "binding for q", qid));
    }
    key.push_back((*row)[static_cast<size_t>(col)]);
  }
  return key;
}

Result<const Table*> Executor::EvalBox(Box* box, const RowEnv& env,
                                       Table* scratch) {
  // Recursive components are evaluated as one fixpoint.
  if (strata_.recursive_boxes.count(box->id())) {
    int scc = strata_.scc_id[box->id()];
    if (scc == scc_in_progress_id_ && scc_in_progress_ != nullptr) {
      return &scc_in_progress_->at(box->id());
    }
    if (scc_done_.count(scc)) {
      ++stats_.cache_hits;
      // Same per-box bookkeeping as the other two cache-hit paths below,
      // so EXPLAIN ANALYZE box cache_hits reconcile with ExecStats.
      if (options_.collect_box_stats) ++box_stats_[box->id()].cache_hits;
    } else {
      ++stats_.cache_misses;
    }
    SM_RETURN_IF_ERROR(EnsureSccEvaluated(scc));
    return &cache_.at(box->id());
  }

  if (box->kind() == BoxKind::kBaseTable) {
    const Table* table = catalog_->GetTable(box->table_name());
    if (table == nullptr) {
      return Status::ExecutionError(
          StrCat("stored table '", box->table_name(), "' does not exist"));
    }
    // sys.* scans resolve to per-query snapshot tables materialized by the
    // catalog overlay on first access (snapshot-at-scan-start). Stored
    // tables pre-exist the query and are never charged, but a snapshot is
    // query-local state, so its bytes are charged once — at the
    // coordinator (EvalBox is coordinator-only), hence deterministically —
    // and held to end of query like the snapshot itself.
    // Every EvalBox of a base table hands the whole table to a caller that
    // reads all of it (index probes bypass EvalBox), so it is one scan.
    if (options_.collect_box_stats) {
      BoxExecStats& ts = table_stats_[box->id()];
      ++ts.evaluations;
      ts.rows_out += table->num_rows();
    }
    if (IsSysTableName(box->table_name()) &&
        charged_sys_tables_.insert(ToLower(box->table_name())).second) {
      int64_t bytes = TableBytes(*table);
      SM_RETURN_IF_ERROR(options_.governor->Reserve(bytes));
      cache_charged_bytes_ += bytes;
    }
    return table;
  }

  SM_ASSIGN_OR_RETURN(Row key, BindingKey(box, env));
  if (key.empty()) {
    auto it = cache_.find(box->id());
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      if (options_.collect_box_stats) ++box_stats_[box->id()].cache_hits;
      return &it->second;
    }
    ++stats_.cache_misses;
    SM_ASSIGN_OR_RETURN(Table result, ComputeBox(box, env));
    // Cached results live until the executor dies; ~Executor releases the
    // accumulated cache charges exactly once.
    int64_t bytes = TableBytes(result);
    SM_RETURN_IF_ERROR(options_.governor->Reserve(bytes));
    cache_charged_bytes_ += bytes;
    return &cache_.emplace(box->id(), std::move(result)).first->second;
  }
  if (options_.memoize_correlation) {
    auto& per_box = corr_cache_[box->id()];
    auto it = per_box.find(key);
    if (it != per_box.end()) {
      ++stats_.cache_hits;
      if (options_.collect_box_stats) ++box_stats_[box->id()].cache_hits;
      return &it->second;
    }
    ++stats_.cache_misses;
    SM_ASSIGN_OR_RETURN(Table result, ComputeBox(box, env));
    int64_t bytes = RowBytes(key) + TableBytes(result);
    SM_RETURN_IF_ERROR(options_.governor->Reserve(bytes));
    cache_charged_bytes_ += bytes;
    return &per_box.emplace(std::move(key), std::move(result)).first->second;
  }
  SM_ASSIGN_OR_RETURN(Table result, ComputeBox(box, env));
  *scratch = std::move(result);
  return scratch;
}

Result<Table> Executor::ComputeBox(Box* box, const RowEnv& env) {
  // Cooperative cancellation point: every box materialization (including
  // one per correlated binding and per fixpoint round) polls the governor,
  // so sequential execution aborts at box granularity even when no worker
  // pool exists.
  SM_RETURN_IF_ERROR(options_.governor->CheckPoint());
  if (options_.progress != nullptr) {
    // Piggybacked on the cancellation site: two wait-free relaxed stores
    // publishing "rows so far" and the governor's peak to live snapshots.
    options_.progress->SetRowsProduced(stats_.rows_produced);
    options_.progress->SetPeakBytes(options_.governor->peak_bytes());
  }
  ++stats_.box_evaluations;
  const bool tracing =
      options_.tracer != nullptr && options_.tracer->enabled();
  if (!options_.collect_box_stats && !tracing) {
    Result<Table> result = DispatchBox(box, env);
    if (result.ok()) {
      SM_RETURN_IF_ERROR(
          options_.governor->CheckOutputRows(stats_.rows_produced));
    }
    return result;
  }

  using Clock = std::chrono::steady_clock;
  BoxExecStats& bstats = box_stats_[box->id()];
  ++bstats.evaluations;
  // A correlated box is evaluated once per binding; after the first few a
  // per-evaluation span adds nothing but trace bloat, so only the earliest
  // evaluations of each box get spans (stats keep accumulating for all).
  constexpr int64_t kMaxSpansPerBox = 32;
  SpanScope span(
      tracing && bstats.evaluations <= kMaxSpansPerBox ? options_.tracer
                                                       : nullptr,
      box->DebugId(), "exec");
  const int64_t probes_before = stats_.join_probes + stats_.index_probes;
  Clock::time_point start = Clock::now();
  Result<Table> result = DispatchBox(box, env);
  bstats.wall_ms += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count() /
                    1e6;
  bstats.probes += stats_.join_probes + stats_.index_probes - probes_before;
  if (result.ok()) {
    bstats.rows_out += result->num_rows();
    span.SetAttribute("rows_out", result->num_rows());
    span.SetAttribute(
        "probes", stats_.join_probes + stats_.index_probes - probes_before);
    SM_RETURN_IF_ERROR(
        options_.governor->CheckOutputRows(stats_.rows_produced));
  }
  return result;
}

Result<Table> Executor::DispatchBox(Box* box, const RowEnv& env) {
  switch (box->kind()) {
    case BoxKind::kSelect:
      return ComputeSelect(box, env);
    case BoxKind::kGroupBy:
      return ComputeGroupBy(box, env);
    case BoxKind::kSetOp:
      return ComputeSetOp(box, env);
    case BoxKind::kCustom:
      return ComputeCustom(box, env);
    case BoxKind::kBaseTable:
      return Status::Internal("base tables are evaluated in EvalBox");
  }
  return Status::Internal("unhandled box kind");
}

// ---------------------------------------------------------------------------
// Select boxes: left-deep (hash) joins + E/A/Scalar quantifiers
// ---------------------------------------------------------------------------

const SelectPlan& Executor::PlanFor(Box* box) {
  auto it = select_plans_.find(box->id());
  if (it != select_plans_.end()) return it->second;
  SelectPlan plan = LowerSelect(
      box, catalog_, options_.use_secondary_indexes,
      [this](Box* b) -> const std::vector<std::pair<int, int>>& {
        return ExternalRefs(b);
      });
  return select_plans_.emplace(box->id(), std::move(plan)).first->second;
}

Result<Table> Executor::ComputeSelect(Box* box, const RowEnv& env) {
  const SelectPlan& plan = PlanFor(box);

  // Intermediate result: the joined row combinations, one level per
  // finished join step. Entry i of levels[s] extends entry `outer` of
  // levels[s - 1] by the row bound to quantifier bound[s]; before the
  // first step there is one empty combination. Rows from per-binding
  // (non-cached) evaluations are kept in `arena` for stable pointers.
  std::vector<ComboVec> levels;
  std::vector<int> bound;
  std::deque<Row> arena;
  std::deque<Table> kept_inputs;
  auto num_combos = [&levels]() -> int64_t {
    return levels.empty() ? 1 : static_cast<int64_t>(levels.back().size());
  };
  // Binds every row of combination `ci` of the last level into *e.
  auto bind_combo = [&levels, &bound](int64_t ci, RowEnv* e) {
    for (size_t s = levels.size(); s-- > 0;) {
      const Combo& c = levels[s][static_cast<size_t>(ci)];
      e->Bind(bound[s], c.row);
      ci = c.outer;
    }
  };

  // Governor accounting for this box's transient join state. The
  // combinations of the current level and arena rows stay charged while
  // alive and are released on successful completion; on error the query
  // aborts and the charges die with the governor. Releases happen only at
  // coordinator points between parallel steps, which keeps peak bytes
  // thread-count invariant.
  ResourceGovernor* const gov = options_.governor;
  const int64_t check_stride = std::max<int64_t>(1, options_.morsel_size);
  const int64_t max_rows = options_.max_rows_per_box;
  int64_t current_bytes = 0;
  int64_t arena_bytes = 0;

  // This box's bindings go on top of a copy of the caller's. Scalar
  // subqueries that do not depend on this box are evaluated once, here.
  RowEnv box_env = env;
  std::deque<Row> hoisted_rows;
  for (Quantifier* q : plan.hoisted_scalars) {
    Table hoist_scratch;
    SM_ASSIGN_OR_RETURN(const Table* t,
                        EvalBox(q->input, box_env, &hoist_scratch));
    stats_.rows_scanned += t->num_rows();
    if (t->num_rows() > 1) {
      return Status::ExecutionError(
          StrCat("scalar subquery '", q->input->label(),
                 "' returned more than one row"));
    }
    hoisted_rows.push_back(
        t->num_rows() == 1
            ? t->rows()[0]
            : Row(static_cast<size_t>(q->input->NumOutputs()), Value::Null()));
    box_env.Bind(q->id, &hoisted_rows.back());
  }

  // Calls fn(ci, &env) for the current combinations [cb, ce), binding each
  // into one environment reused across the range. Pure over shared state,
  // so it serves the sequential loop and every morsel alike (each call
  // copies box_env once).
  auto for_each_combo = [&](int64_t cb, int64_t ce, const auto& fn) -> Status {
    RowEnv inner = box_env;
    for (int64_t ci = cb; ci < ce; ++ci) {
      bind_combo(ci, &inner);
      SM_RETURN_IF_ERROR(fn(ci, &inner));
    }
    return Status::OK();
  };
  // The tail of every uncorrelated join step: when each of `filters` holds
  // under `e` (which binds `row`), appends the combination extending
  // `outer` by `row` to *out, failing once *out exceeds the box's cap.
  auto append_if_all = [max_rows](const std::vector<const Expr*>& filters,
                                  const RowEnv& e, int64_t outer,
                                  const Row* row, ComboVec* out) -> Status {
    for (const Expr* f : filters) {
      SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*f, e));
      if (v != TriBool::kTrue) return Status::OK();
    }
    out->push_back(Combo{outer, row});
    if (static_cast<int64_t>(out->size()) > max_rows) {
      return Status::ExecutionError("row limit exceeded during join");
    }
    return Status::OK();
  };

  for (const SelectPlan::Step& step : plan.steps) {
    SM_RETURN_IF_ERROR(step.order_error);
    Quantifier* const q = step.q;
    const int64_t n = num_combos();
    const int arity = static_cast<int>(bound.size()) + 1;

    ComboVec next;
    int64_t next_bytes = 0;  // bytes charged for `next` (parallel paths)
    int64_t step_build_bytes = 0;  // hash build table, released at step end
    bool step_done = false;

    // Per-morsel scratch of the probe steps: the reused probe key, the
    // range bound and the candidate row ids.
    struct ProbeScratch {
      Row key;
      Value bound;
      std::vector<int> ids;
    };
    // One probe step (hash table, equality index or ordered-range index):
    // per combination, lookup(env, stats, &scratch) counts the probe and
    // returns the candidate row ids (nullptr for none); each candidate
    // bumps `counter`, binds q, and is kept when all of `keep_if` hold.
    auto probe_step = [&](const auto& lookup, const auto& row_at,
                          int64_t ExecStats::*counter,
                          const std::vector<const Expr*>& keep_if) -> Status {
      return RunStep(
          n, arity,
          [&](int64_t cb, int64_t ce, ComboVec* out,
              ExecStats* stats) -> Status {
            ProbeScratch scratch;
            return for_each_combo(
                cb, ce, [&](int64_t ci, RowEnv* inner) -> Status {
                  SM_ASSIGN_OR_RETURN(const std::vector<int>* matches,
                                      lookup(*inner, stats, &scratch));
                  if (matches == nullptr) return Status::OK();
                  for (int ri : *matches) {
                    const Row* row = row_at(ri);
                    ++(stats->*counter);
                    inner->Bind(q->id, row);
                    SM_RETURN_IF_ERROR(
                        append_if_all(keep_if, *inner, ci, row, out));
                  }
                  inner->Unbind(q->id);
                  return Status::OK();
                });
          },
          &next, &next_bytes);
    };
    using Lookup = Result<const std::vector<int>*>;

    // Index-nested-loop over a stored table, while the bound side is no
    // larger than the table (the access path itself was resolved when the
    // box was lowered).
    const int64_t index_probes_before = stats_.index_probes;
    const int64_t index_fetched_before = stats_.index_rows_fetched;
    if (step.index_access != SelectPlan::IndexAccess::kNone) {
      const Table* table = catalog_->GetTable(q->input->table_name());
      if (table != nullptr && n <= table->num_rows()) {
        auto table_row = [table](int ri) {
          return &table->rows()[static_cast<size_t>(ri)];
        };
        const SecondaryIndex* index = step.index;
        if (step.index_access == SelectPlan::IndexAccess::kEquality) {
          SM_RETURN_IF_ERROR(probe_step(
              [&](const RowEnv& inner, ExecStats* stats,
                  ProbeScratch* scratch) -> Lookup {
                SM_RETURN_IF_ERROR(
                    EvalKey(step.index_keys, inner, &scratch->key));
                ++stats->index_probes;
                scratch->ids.clear();
                index->ProbeEqual(scratch->key, &scratch->ids);
                return &scratch->ids;
              },
              table_row, &ExecStats::index_rows_fetched,
              step.index_residual));
        } else {
          const bool upper = step.range_upper;
          const bool inclusive = step.range_inclusive;
          SM_RETURN_IF_ERROR(probe_step(
              [&](const RowEnv& inner, ExecStats* stats,
                  ProbeScratch* scratch) -> Lookup {
                SM_ASSIGN_OR_RETURN(
                    const Value* v,
                    EvalRef(*step.range_bound, inner, &scratch->bound));
                ++stats->index_probes;
                scratch->ids.clear();
                index->ProbeRange(upper ? nullptr : v, inclusive,
                                  upper ? v : nullptr, inclusive,
                                  &scratch->ids);
                return &scratch->ids;
              },
              table_row, &ExecStats::index_rows_fetched, step.residual));
        }
        step_done = true;
      }
    }

    if (step_done) {
      // Charge the probes and the rows they fetched to the probed table.
      if (options_.collect_box_stats) {
        BoxExecStats& ts = table_stats_[q->input->id()];
        ts.probes += stats_.index_probes - index_probes_before;
        ts.rows_out += stats_.index_rows_fetched - index_fetched_before;
      }
    } else if (step.correlated) {
      // Nested-loop: evaluate the input once per current combination.
      Table scratch;
      RowEnv inner = box_env;
      for (int64_t ci = 0; ci < n; ++ci) {
        bind_combo(ci, &inner);
        SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, inner, &scratch));
        stats_.rows_scanned += t->num_rows();
        for (const Row& row : t->rows()) {
          inner.Bind(q->id, &row);
          bool keep = true;
          for (const Expr* f : step.filters) {
            ++stats_.join_probes;
            SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*f, inner));
            if (v != TriBool::kTrue) {
              keep = false;
              break;
            }
          }
          if (!keep) continue;
          // A kept row is charged as the copy the combination holds; the
          // combination pointing at it is charged with the rest of `next`
          // at the end of the step. Cached results outlive the box, so
          // only a per-binding result's rows are actually copied.
          const Row* kept = &row;
          if (t == &scratch) {
            arena.push_back(row);
            kept = &arena.back();
          }
          int64_t rb = RowBytes(*kept);
          arena_bytes += rb;
          SM_RETURN_IF_ERROR(gov->Reserve(rb));
          next.push_back(Combo{ci, kept});
          if (static_cast<int64_t>(next.size()) > max_rows) {
            return Status::ExecutionError("row limit exceeded during join");
          }
        }
        inner.Unbind(q->id);
      }
    } else {
      Table scratch;
      SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, box_env, &scratch));
      if (t == &scratch) {
        // Non-memoized storage would not outlive this step; keep the table
        // alive with the box's join state (moving it keeps its rows where
        // they are) and charge it as arena rows.
        int64_t sb = TableBytes(scratch);
        arena_bytes += sb;
        SM_RETURN_IF_ERROR(gov->Reserve(sb));
        kept_inputs.push_back(std::move(scratch));
        t = &kept_inputs.back();
      }
      const std::vector<Row>& input_rows = t->rows();
      stats_.rows_scanned += static_cast<int64_t>(input_rows.size());

      if (!step.hash_columns.empty()) {
        JoinHashTable table;
        table.Reserve(input_rows.size());
        // The build side is charged in morsel-sized chunks so an
        // over-budget build aborts mid-build, not after materializing the
        // whole table. The build runs on the coordinator in input order,
        // so the abort point — and the resulting Status — is identical at
        // any thread count.
        int64_t build_bytes = 0;
        int64_t build_chunk = 0;
        int64_t build_until_check = check_stride;
        Row key(step.hash_columns.size());
        for (size_t ri = 0; ri < input_rows.size(); ++ri) {
          for (size_t k = 0; k < key.size(); ++k) {
            key[k] = input_rows[ri][static_cast<size_t>(step.hash_columns[k])];
          }
          build_chunk += RowBytes(key) + static_cast<int64_t>(sizeof(int));
          if (--build_until_check == 0) {
            build_until_check = check_stride;
            build_bytes += build_chunk;
            SM_RETURN_IF_ERROR(gov->Reserve(build_chunk));
            build_chunk = 0;
          }
          table.Insert(key, static_cast<int>(ri));
        }
        if (build_chunk > 0) {
          build_bytes += build_chunk;
          SM_RETURN_IF_ERROR(gov->Reserve(build_chunk));
        }
        // The build table is shared read-only by every probing morsel.
        SM_RETURN_IF_ERROR(probe_step(
            [&](const RowEnv& inner, ExecStats* stats,
                ProbeScratch* scratch) -> Lookup {
              SM_RETURN_IF_ERROR(EvalKey(step.hash_keys, inner, &scratch->key));
              ++stats->join_probes;
              return table.Probe(scratch->key);
            },
            [&input_rows](int ri) {
              return &input_rows[static_cast<size_t>(ri)];
            },
            &ExecStats::rows_scanned, step.residual));
        // The build table dies with this step, but its bytes are held
        // until the end-of-step coordinator point below: parallel probes
        // charge output combos while the build table is live, so the
        // sequential path must keep it charged until `next` is charged
        // too, or peak bytes would differ by thread count.
        step_build_bytes = build_bytes;
      } else {
        // Nested loop with all filters (filter-only steps and joins with
        // no usable equality).
        const int64_t num_input = static_cast<int64_t>(input_rows.size());
        auto scan_rows = [&](int64_t cb, int64_t ce, int64_t rb, int64_t re,
                             ComboVec* out, ExecStats* stats) -> Status {
          return for_each_combo(
              cb, ce, [&](int64_t ci, RowEnv* inner) -> Status {
                for (int64_t r = rb; r < re; ++r) {
                  const Row* row = &input_rows[static_cast<size_t>(r)];
                  inner->Bind(q->id, row);
                  ++stats->join_probes;
                  SM_RETURN_IF_ERROR(
                      append_if_all(step.filters, *inner, ci, row, out));
                }
                inner->Unbind(q->id);
                return Status::OK();
              });
        };
        if (num_input > n && ShouldParallelize(num_input)) {
          // Partitioned scan: split the input rows (the common shape — a
          // base-table or box scan with predicate evaluation has a single
          // empty combo), one barrier per combo.
          for (int64_t ci = 0; ci < n; ++ci) {
            SM_RETURN_IF_ERROR(ParallelAppend(
                num_input, arity,
                [&](int64_t rb, int64_t re, ComboVec* out,
                    ExecStats* stats) -> Status {
                  return scan_rows(ci, ci + 1, rb, re, out, stats);
                },
                &next, &next_bytes));
          }
        } else {
          SM_RETURN_IF_ERROR(RunStep(
              n, arity,
              [&](int64_t cb, int64_t ce, ComboVec* out,
                  ExecStats* stats) -> Status {
                return scan_rows(cb, ce, 0, num_input, out, stats);
              },
              &next, &next_bytes));
        }
      }
    }
    // Sequential paths charge their step output here in one lump; the
    // parallel paths already charged the identical combos morsel by morsel
    // (next_bytes > 0 exactly when some buffer was non-empty), so
    // used-bytes at every step boundary is the same either way.
    if (next_bytes == 0) {
      next_bytes = static_cast<int64_t>(next.size()) * ComboBytes(arity);
      SM_RETURN_IF_ERROR(gov->Reserve(next_bytes));
    }
    SM_RETURN_IF_ERROR(gov->CheckPoint());
    gov->Release(current_bytes + step_build_bytes);
    if (options_.progress != nullptr) {
      options_.progress->SetPeakBytes(gov->peak_bytes());
    }
    bound.push_back(q->id);
    levels.push_back(std::move(next));
    current_bytes = next_bytes;
  }

  // Per-combination phase: scalar subqueries, E/A quantifiers, residual
  // predicates, projection.
  Table out(box->label(), Schema{});
  std::vector<Row> produced;
  int64_t until_check = check_stride;
  RowEnv rowenv = box_env;
  std::vector<Row> scalar_rows(plan.per_row_scalars.size());
  Table scratch;
  const int64_t n = num_combos();
  for (int64_t ci = 0; ci < n; ++ci) {
    // The projection/E-A phase is a coordinator loop; poll the governor
    // every morsel's worth of combinations so a cancel or deadline lands
    // here too, not just at join steps. Countdown rather than modulo —
    // this runs per output row, and a 64-bit division here is measurable.
    if (--until_check == 0) {
      until_check = check_stride;
      SM_RETURN_IF_ERROR(gov->CheckPoint());
      if (options_.progress != nullptr) {
        options_.progress->SetPeakBytes(gov->peak_bytes());
      }
    }
    bind_combo(ci, &rowenv);

    // Remaining (correlated) scalar quantifiers, declaration order.
    bool row_ok = true;
    for (size_t si = 0; si < plan.per_row_scalars.size(); ++si) {
      Quantifier* q = plan.per_row_scalars[si];
      SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, rowenv, &scratch));
      stats_.rows_scanned += t->num_rows();
      if (t->num_rows() > 1) {
        return Status::ExecutionError(
            StrCat("scalar subquery '", q->input->label(),
                   "' returned more than one row"));
      }
      if (t->num_rows() == 1) {
        scalar_rows[si] = t->rows()[0];
      } else {
        scalar_rows[si].assign(static_cast<size_t>(q->input->NumOutputs()),
                               Value::Null());
      }
      rowenv.Bind(q->id, &scalar_rows[si]);
    }

    // E / A quantifiers.
    for (const SelectPlan::Quantified& eq : plan.quantified) {
      Quantifier* q = eq.q;
      SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, rowenv, &scratch));
      stats_.rows_scanned += t->num_rows();
      if (q->type == QuantifierType::kAll && q->requires_empty) {
        if (t->num_rows() != 0) {
          row_ok = false;
          break;
        }
        continue;
      }
      if (q->type == QuantifierType::kExistential) {
        bool found = eq.preds.empty() ? t->num_rows() > 0 : false;
        for (const Row& srow : t->rows()) {
          if (found) break;
          rowenv.Bind(q->id, &srow);
          bool all_true = true;
          for (const Expr* p : eq.preds) {
            ++stats_.join_probes;
            SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*p, rowenv));
            if (v != TriBool::kTrue) {
              all_true = false;
              break;
            }
          }
          if (all_true) found = true;
        }
        rowenv.Unbind(q->id);
        if (!found) {
          row_ok = false;
          break;
        }
      } else {  // kAll: predicates must hold for every input row
        bool all_rows_true = true;
        for (const Row& srow : t->rows()) {
          rowenv.Bind(q->id, &srow);
          for (const Expr* p : eq.preds) {
            ++stats_.join_probes;
            SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*p, rowenv));
            if (v != TriBool::kTrue) {
              all_rows_true = false;
              break;
            }
          }
          if (!all_rows_true) break;
        }
        rowenv.Unbind(q->id);
        if (!all_rows_true) {
          row_ok = false;
          break;
        }
      }
    }
    if (!row_ok) continue;

    // Residual predicates (e.g. involving scalar results).
    bool keep = true;
    for (const Expr* f : plan.final_filters) {
      SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*f, rowenv));
      if (v != TriBool::kTrue) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;

    Row out_row;
    out_row.reserve(box->outputs().size());
    for (const OutputColumn& col : box->outputs()) {
      if (col.expr == nullptr) {
        return Status::Internal(
            StrCat("select box ", box->DebugId(), " output '", col.name,
                   "' has no expression"));
      }
      // Computed values land in the output slot itself; a column or a
      // literal is copied there once.
      Value& slot = out_row.emplace_back();
      SM_ASSIGN_OR_RETURN(const Value* v, EvalRef(*col.expr, rowenv, &slot));
      if (v != &slot) slot = *v;
    }
    produced.push_back(std::move(out_row));
    if (static_cast<int64_t>(produced.size()) > max_rows) {
      return Status::ExecutionError("row limit exceeded during projection");
    }
  }

  if (box->enforce_distinct()) {
    // Keep each row's first occurrence, in order: mark first, then compact
    // (the set reads rows in place, so none may move while it is in use).
    std::vector<bool> first(produced.size());
    {
      RowPositionSet seen(&produced);
      for (size_t i = 0; i < produced.size(); ++i) first[i] = seen.Insert(i);
    }
    size_t kept = 0;
    for (size_t i = 0; i < produced.size(); ++i) {
      if (!first[i]) continue;
      if (kept != i) produced[kept] = std::move(produced[i]);
      ++kept;
    }
    produced.resize(kept);
  }
  stats_.rows_produced += static_cast<int64_t>(produced.size());
  out.mutable_rows() = std::move(produced);
  // Successful completion: the join state (combos + arena) dies here, so
  // return its bytes. Error paths above skip this — the query is aborting
  // and its governor's ledger dies with it.
  gov->Release(current_bytes + arena_bytes);
  return out;
}

// ---------------------------------------------------------------------------
// GroupBy boxes: hash aggregation
// ---------------------------------------------------------------------------

Result<Table> Executor::ComputeGroupBy(Box* box, const RowEnv& env) {
  Quantifier* q = box->quantifiers()[0].get();
  Table scratch;
  SM_ASSIGN_OR_RETURN(const Table* input, EvalBox(q->input, env, &scratch));
  stats_.rows_scanned += input->num_rows();

  int nkeys = box->num_group_keys();
  int nout = box->NumOutputs();

  // Accumulators per group key.
  std::unordered_map<Row, std::vector<Accumulator>, RowHash, RowEq> groups;
  auto make_accs = [&]() {
    std::vector<Accumulator> accs;
    for (int c = nkeys; c < nout; ++c) {
      const Expr* agg = box->outputs()[static_cast<size_t>(c)].expr.get();
      accs.emplace_back(agg->agg_func, agg->agg_distinct);
    }
    return accs;
  };
  if (nkeys == 0) {
    // Global aggregate: exactly one group, even over empty input.
    groups.emplace(Row{}, make_accs());
  }

  std::vector<const Expr*> key_exprs;
  for (int c = 0; c < nkeys; ++c) {
    key_exprs.push_back(box->outputs()[static_cast<size_t>(c)].expr.get());
  }
  static const Value kCountStarInput = Value::Int(1);  // ignored by COUNT(*)
  RowEnv rowenv = env;
  Row key;  // reused per row; copied only into a new group
  Value scratch_value;
  for (const Row& row : input->rows()) {
    rowenv.Bind(q->id, &row);
    SM_RETURN_IF_ERROR(EvalKey(key_exprs, rowenv, &key));
    auto it = groups.find(key);
    if (it == groups.end()) it = groups.emplace(key, make_accs()).first;
    for (int c = nkeys; c < nout; ++c) {
      const Expr* agg = box->outputs()[static_cast<size_t>(c)].expr.get();
      const Value* v = &kCountStarInput;
      if (!agg->children.empty()) {
        SM_ASSIGN_OR_RETURN(v,
                            EvalRef(*agg->children[0], rowenv, &scratch_value));
      }
      SM_RETURN_IF_ERROR(it->second[static_cast<size_t>(c - nkeys)].Add(*v));
    }
  }

  Table out(box->label(), Schema{});
  for (auto& [group_key, accs] : groups) {
    Row row;
    row.reserve(static_cast<size_t>(nout));
    for (const Value& v : group_key) row.push_back(v);
    for (Accumulator& acc : accs) {
      SM_ASSIGN_OR_RETURN(Value v, acc.Finish());
      row.push_back(std::move(v));
    }
    out.AppendUnchecked(std::move(row));
  }
  stats_.rows_produced += out.num_rows();
  return out;
}

// ---------------------------------------------------------------------------
// Set operations (set semantics unless UNION ALL)
// ---------------------------------------------------------------------------

Result<Table> Executor::ComputeSetOp(Box* box, const RowEnv& env) {
  std::vector<Table> scratches(box->quantifiers().size());
  std::vector<const Table*> inputs;
  for (size_t i = 0; i < box->quantifiers().size(); ++i) {
    SM_ASSIGN_OR_RETURN(
        const Table* t,
        EvalBox(box->quantifiers()[i]->input, env, &scratches[i]));
    stats_.rows_scanned += t->num_rows();
    inputs.push_back(t);
  }
  Table out(box->label(), Schema{});
  switch (box->set_op()) {
    case SetOpKind::kUnion: {
      if (box->enforce_distinct()) {
        // Append each row, and take it back when an equal row is already
        // in the output.
        std::vector<Row>& rows = out.mutable_rows();
        RowPositionSet seen(&rows);
        for (const Table* t : inputs) {
          for (const Row& row : t->rows()) {
            rows.push_back(row);
            if (!seen.Insert(rows.size() - 1)) rows.pop_back();
          }
        }
      } else {
        for (const Table* t : inputs) {
          for (const Row& row : t->rows()) out.AppendUnchecked(row);
        }
      }
      break;
    }
    case SetOpKind::kIntersect: {
      std::unordered_map<Row, int, RowHash, RowEq> counts;
      for (const Row& row : inputs[0]->rows()) counts.emplace(row, 1);
      for (size_t i = 1; i < inputs.size(); ++i) {
        for (const Row& row : inputs[i]->rows()) {
          auto it = counts.find(row);
          if (it != counts.end() && it->second == static_cast<int>(i)) {
            it->second = static_cast<int>(i) + 1;
          }
        }
      }
      for (const auto& [row, count] : counts) {
        if (count == static_cast<int>(inputs.size())) out.AppendUnchecked(row);
      }
      break;
    }
    case SetOpKind::kExcept: {
      std::unordered_map<Row, bool, RowHash, RowEq> removed;
      for (size_t i = 1; i < inputs.size(); ++i) {
        for (const Row& row : inputs[i]->rows()) removed.emplace(row, true);
      }
      std::unordered_map<Row, bool, RowHash, RowEq> emitted;
      for (const Row& row : inputs[0]->rows()) {
        if (removed.count(row)) continue;
        if (emitted.emplace(row, true).second) out.AppendUnchecked(row);
      }
      break;
    }
  }
  stats_.rows_produced += out.num_rows();
  return out;
}

Result<Table> Executor::ComputeCustom(Box* box, const RowEnv& env) {
  const OperationTraits* traits = box->traits();
  if (traits == nullptr || traits->evaluate == nullptr) {
    return Status::NotSupported(
        StrCat("operation '", box->op_name(), "' has no registered evaluator"));
  }
  std::vector<Table> scratches(box->quantifiers().size());
  std::vector<const Table*> inputs;
  for (size_t i = 0; i < box->quantifiers().size(); ++i) {
    SM_ASSIGN_OR_RETURN(
        const Table* t,
        EvalBox(box->quantifiers()[i]->input, env, &scratches[i]));
    stats_.rows_scanned += t->num_rows();
    inputs.push_back(t);
  }
  SM_ASSIGN_OR_RETURN(Table out, traits->evaluate(*box, inputs));
  stats_.rows_produced += out.num_rows();
  return out;
}

// ---------------------------------------------------------------------------
// Recursive components: stratified fixpoint
// ---------------------------------------------------------------------------

Status Executor::EnsureSccEvaluated(int scc_id) {
  if (scc_done_.count(scc_id)) return Status::OK();
  const std::vector<int>& members = scc_members_[scc_id];

  // Stratification / monotonicity checks.
  for (int bid : members) {
    Box* b = graph_->GetBox(bid);
    if (b == nullptr) continue;
    if (b->kind() == BoxKind::kGroupBy) {
      return Status::NotSupported(
          "aggregation through recursion is not stratified");
    }
    if (b->kind() == BoxKind::kSetOp && b->set_op() != SetOpKind::kUnion) {
      return Status::NotSupported(
          "EXCEPT/INTERSECT through recursion is not stratified");
    }
    if (b->kind() == BoxKind::kSetOp && !b->enforce_distinct()) {
      return Status::NotSupported(
          "recursive UNION ALL does not terminate; use UNION");
    }
    if (!ExternalRefs(b).empty()) {
      return Status::NotSupported("correlated recursion is not supported");
    }
    for (const auto& q : b->quantifiers()) {
      if (q->type != QuantifierType::kForEach && q->input != nullptr &&
          strata_.scc_id.count(q->input->id()) &&
          strata_.scc_id[q->input->id()] == scc_id) {
        return Status::NotSupported(
            "negation/aggregation over the recursive relation is not "
            "stratified");
      }
    }
  }

  SpanScope fixpoint_span(options_.tracer, StrCat("fixpoint scc ", scc_id),
                          "exec");
  fixpoint_span.SetAttribute("members", static_cast<int64_t>(members.size()));

  // Naive fixpoint: iterate until every member's row count is stable. All
  // operations inside an SCC are monotone (joins and distinct unions), so
  // stable counts imply stable contents.
  std::map<int, Table> state;
  for (int bid : members) {
    state.emplace(bid, Table(graph_->GetBox(bid)->label(), Schema{}));
  }
  RowEnv env(num_slots_);
  // Restores the enclosing SCC's in-progress state on every exit path.
  struct InProgressScope {
    Executor* self;
    const std::map<int, Table>* prev_state;
    int prev_id;
    ~InProgressScope() {
      self->scc_in_progress_ = prev_state;
      self->scc_in_progress_id_ = prev_id;
    }
  } in_progress{this, scc_in_progress_, scc_in_progress_id_};
  scc_in_progress_ = &state;
  scc_in_progress_id_ = scc_id;

  bool changed = true;
  int64_t rounds = 0;
  std::vector<int> ordered = members;
  std::sort(ordered.begin(), ordered.end());
  ResourceGovernor* const gov = options_.governor;
  while (changed) {
    changed = false;
    ++rounds;
    ++stats_.fixpoint_iterations;
    if (options_.progress != nullptr) {
      options_.progress->SetFixpointRound(stats_.fixpoint_iterations);
    }
    // Governor round boundary: cancellation/deadline poll plus the
    // fixpoint-iteration cap (cumulative across the query's SCCs), which is
    // what ends a recursion that never converges.
    SM_RETURN_IF_ERROR(gov->CheckPoint());
    SM_RETURN_IF_ERROR(gov->CheckFixpointIteration(stats_.fixpoint_iterations));
    for (int bid : ordered) {
      SM_ASSIGN_OR_RETURN(Table next, ComputeBox(graph_->GetBox(bid), env));
      if (next.num_rows() != state.at(bid).num_rows()) changed = true;
      // Swap the member's relation charge: new total in, old total out
      // (reserve-then-release so the transient double-count is what a real
      // copy would occupy). The charge survives convergence — the state
      // tables move into the box-result cache below.
      SM_RETURN_IF_ERROR(gov->Reserve(TableBytes(next)));
      gov->Release(TableBytes(state.at(bid)));
      state.at(bid) = std::move(next);
    }
  }
  for (int bid : ordered) {
    // The per-round reserve/release swaps above left exactly the final
    // relation's bytes charged; the table now joins the box-result cache,
    // so record that residual for the destructor's single release.
    cache_charged_bytes_ += TableBytes(state.at(bid));
    cache_.emplace(bid, std::move(state.at(bid)));
  }
  scc_done_.insert(scc_id);
  fixpoint_span.SetAttribute("iterations", rounds);
  return Status::OK();
}

}  // namespace starmagic
