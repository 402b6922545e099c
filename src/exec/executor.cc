#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>

#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "governor/governor.h"
#include "sys/system_tables.h"

namespace starmagic {

namespace {

// Governor charge for one joined row combination. Content-based (combo
// arity only), so the charge for a step's combinations is identical
// whether they were produced sequentially or by any number of workers —
// the peak-bytes determinism contract depends on this.
int64_t ComboBytes(const std::vector<const Row*>& combo) {
  return static_cast<int64_t>(sizeof(std::vector<const Row*>) +
                              combo.size() * sizeof(const Row*));
}

// Values of `exprs` under `env`: the probe key of an equality join step.
Result<Row> EvalKey(const std::vector<const Expr*>& exprs, const RowEnv& env) {
  Row key;
  key.reserve(exprs.size());
  for (const Expr* e : exprs) {
    SM_ASSIGN_OR_RETURN(Value v, EvalScalar(*e, env));
    key.push_back(std::move(v));
  }
  return key;
}

// The tail of every uncorrelated join step: when each of `filters` holds
// under `env` (which binds `row`), appends `combo` extended by `row` to
// *out, failing once *out exceeds `max_rows` combinations.
Status AppendIfAll(const std::vector<const Expr*>& filters, const RowEnv& env,
                   const std::vector<const Row*>& combo, const Row* row,
                   std::vector<std::vector<const Row*>>* out,
                   int64_t max_rows) {
  for (const Expr* f : filters) {
    SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*f, env));
    if (v != TriBool::kTrue) return Status::OK();
  }
  auto combo2 = combo;
  combo2.push_back(row);
  out->push_back(std::move(combo2));
  if (static_cast<int64_t>(out->size()) > max_rows) {
    return Status::ExecutionError("row limit exceeded during join");
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
    int64_t n,
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
        int64_t bytes = 0;
        for (const auto& combo : *out) bytes += ComboBytes(combo);
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
  for (ComboVec& buffer : buffers) {
    for (auto& combo : buffer) next->push_back(std::move(combo));
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
  RowEnv env;
  Table scratch;
  SM_ASSIGN_OR_RETURN(const Table* result, EvalBox(top, env, &scratch));
  std::vector<Row> rows = result->rows();
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

Result<Table> Executor::ComputeSelect(Box* box, const RowEnv& env) {
  std::vector<Quantifier*> forder = OrderedForEachQuantifiers(box);

  std::set<int> own_qids;
  std::set<int> ea_ids;
  std::vector<Quantifier*> scalar_qs;
  std::vector<Quantifier*> ea_qs;
  for (const auto& q : box->quantifiers()) {
    own_qids.insert(q->id);
    if (q->type == QuantifierType::kExistential ||
        q->type == QuantifierType::kAll) {
      ea_ids.insert(q->id);
      ea_qs.push_back(q.get());
    } else if (q->type == QuantifierType::kScalar) {
      scalar_qs.push_back(q.get());
    }
  }

  // Predicate bookkeeping: a predicate is handled in the E/A phase when it
  // references an E/A quantifier; otherwise it fires as soon as the box
  // quantifiers it references are all bound.
  struct PredState {
    const Expr* expr;
    bool applied = false;
    bool ea_phase = false;
    std::set<int> own_refs;
  };
  std::vector<PredState> preds;
  for (const ExprPtr& p : box->predicates()) {
    PredState st;
    st.expr = p.get();
    for (int rid : p->ReferencedQuantifiers()) {
      if (own_qids.count(rid)) st.own_refs.insert(rid);
      if (ea_ids.count(rid)) st.ea_phase = true;
    }
    preds.push_back(std::move(st));
  }

  // Intermediate result: one entry per joined row combination, storing the
  // source row of each bound ForEach quantifier. Rows from per-binding
  // (non-cached) evaluations are copied into `arena` for stable pointers.
  std::deque<Row> arena;
  std::vector<std::vector<const Row*>> current;
  current.emplace_back();
  std::vector<int> bound;  // quantifier ids, parallel to entries' positions

  // Governor accounting for this box's transient join state. `current`
  // combinations and arena rows stay charged while alive and are released
  // on successful completion; on error the query aborts and the charges
  // die with the governor. Releases happen only at coordinator points
  // between parallel steps, which keeps peak bytes thread-count invariant.
  ResourceGovernor* const gov = options_.governor;
  const int64_t check_stride = std::max<int64_t>(1, options_.morsel_size);
  int64_t current_bytes = 0;
  int64_t arena_bytes = 0;

  std::set<int> seen;  // bound quantifier ids available to predicates

  // Hoist scalar subqueries that do not depend on this box's quantifiers:
  // their value is fixed for the whole evaluation (grounded condition
  // bounds from magic, uncorrelated scalar comparisons), so predicates
  // over them can filter during the joins below.
  RowEnv box_env(&env);
  std::deque<Row> hoisted_rows;
  std::vector<Quantifier*> per_row_scalars;
  for (Quantifier* q : scalar_qs) {
    bool depends_on_box = false;
    for (const auto& [rid, col] : ExternalRefs(q->input)) {
      if (own_qids.count(rid)) {
        depends_on_box = true;
        break;
      }
    }
    if (depends_on_box) {
      per_row_scalars.push_back(q);
      continue;
    }
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
    seen.insert(q->id);
  }
  auto ready_unapplied = [&](std::vector<const Expr*>* out) {
    for (PredState& st : preds) {
      if (st.applied || st.ea_phase) continue;
      bool ready = true;
      for (int rid : st.own_refs) {
        if (!seen.count(rid)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        st.applied = true;
        out->push_back(st.expr);
      }
    }
  };
  // Calls fn(combo, &env) for the current combinations [cb, ce), binding
  // each into one reused environment. Pure over shared state, so it serves
  // the sequential loop and every morsel alike.
  auto for_each_combo = [&](int64_t cb, int64_t ce, const auto& fn) -> Status {
    RowEnv inner(&box_env);
    for (int64_t ci = cb; ci < ce; ++ci) {
      const auto& combo = current[static_cast<size_t>(ci)];
      for (size_t i = 0; i < bound.size(); ++i) inner.Bind(bound[i], combo[i]);
      SM_RETURN_IF_ERROR(fn(combo, &inner));
    }
    return Status::OK();
  };

  for (Quantifier* q : forder) {
    // Correlated input: its subtree references quantifiers of this box.
    bool correlated_here = false;
    for (const auto& [rid, col] : ExternalRefs(q->input)) {
      if (own_qids.count(rid)) {
        if (!seen.count(rid)) {
          return Status::Internal(
              StrCat("join order binds q", q->id, " before its correlation ",
                     "source q", rid, " in ", box->DebugId()));
        }
        correlated_here = true;
      }
    }

    seen.insert(q->id);
    std::vector<const Expr*> filters;
    ready_unapplied(&filters);

    // Split the filters into hash-joinable equalities and residuals.
    struct HashPred {
      const Expr* orig;        ///< the full equality conjunct
      const Expr* own_side;    ///< column of q
      const Expr* other_side;  ///< expression over earlier quantifiers
    };
    std::vector<HashPred> hash_preds;
    std::vector<const Expr*> hash_keys;  // other_side of each hash_preds entry
    std::vector<const Expr*> residual;
    for (const Expr* f : filters) {
      ColumnComparison cc;
      bool hashable = false;
      if (MatchColumnComparisonFor(*f, q->id, &cc) && cc.op == BinaryOp::kEq) {
        hashable = true;
        for (int rid : cc.other->ReferencedQuantifiers()) {
          if (rid == q->id ||
              (own_qids.count(rid) && rid != q->id && !seen.count(rid))) {
            hashable = false;
            break;
          }
        }
        if (hashable) {
          hash_preds.push_back(HashPred{f, cc.column, cc.other});
          hash_keys.push_back(cc.other);
        }
      }
      if (!hashable) residual.push_back(f);
    }

    std::vector<std::vector<const Row*>> next;
    int64_t next_bytes = 0;  // bytes charged for `next` (parallel paths)
    int64_t step_build_bytes = 0;  // hash build table, released at step end
    bool step_done = false;

    // One probe step (hash table, equality index or ordered-range index):
    // per combination, lookup(env, stats, &scratch) counts the probe and
    // returns the candidate row ids (nullptr for none); each candidate
    // bumps `counter`, binds q, and is kept when all of `keep_if` hold.
    auto probe_step = [&](const auto& lookup, const auto& row_at,
                          int64_t ExecStats::*counter,
                          const std::vector<const Expr*>& keep_if) -> Status {
      return RunStep(
          static_cast<int64_t>(current.size()),
          [&](int64_t cb, int64_t ce, ComboVec* out,
              ExecStats* stats) -> Status {
            std::vector<int> ids;
            return for_each_combo(
                cb, ce,
                [&](const std::vector<const Row*>& combo,
                    RowEnv* inner) -> Status {
                  SM_ASSIGN_OR_RETURN(const std::vector<int>* matches,
                                      lookup(*inner, stats, &ids));
                  if (matches == nullptr) return Status::OK();
                  for (int ri : *matches) {
                    const Row* row = row_at(ri);
                    ++(stats->*counter);
                    inner->Bind(q->id, row);
                    SM_RETURN_IF_ERROR(AppendIfAll(keep_if, *inner, combo, row,
                                                   out,
                                                   options_.max_rows_per_box));
                  }
                  inner->Unbind(q->id);
                  return Status::OK();
                });
          },
          &next, &next_bytes);
    };
    using Lookup = Result<const std::vector<int>*>;

    // Index-nested-loop: when the input is a stored table with a usable
    // secondary index and the bound side is no larger than the table,
    // probe the index per combination instead of materializing and
    // hashing the whole table. This is what makes magic and
    // supplementary-magic quantifiers cheap: the (small) magic box drives
    // point lookups into the base data.
    if (!correlated_here && options_.use_secondary_indexes &&
        q->input->kind() == BoxKind::kBaseTable) {
      const Table* table = catalog_->GetTable(q->input->table_name());
      if (table != nullptr &&
          static_cast<int64_t>(current.size()) <= table->num_rows()) {
        auto table_row = [table](int ri) {
          return &table->rows()[static_cast<size_t>(ri)];
        };
        if (!hash_preds.empty()) {
          // Equality probe (hash or ordered-prefix index).
          std::vector<int> bound_cols;
          for (const HashPred& hp : hash_preds) {
            bound_cols.push_back(hp.own_side->column_index);
          }
          std::optional<IndexMatch> match =
              catalog_->FindEqualityIndex(q->input->table_name(), bound_cols);
          if (match.has_value()) {
            // Pair each index key column with the expression driving it;
            // equality conjuncts the index does not cover stay residual.
            std::vector<const Expr*> key_exprs;
            std::vector<bool> used(hash_preds.size(), false);
            for (int col : match->key_columns) {
              for (size_t i = 0; i < hash_preds.size(); ++i) {
                if (!used[i] &&
                    hash_preds[i].own_side->column_index == col) {
                  used[i] = true;
                  key_exprs.push_back(hash_preds[i].other_side);
                  break;
                }
              }
            }
            std::vector<const Expr*> index_residual = residual;
            for (size_t i = 0; i < hash_preds.size(); ++i) {
              if (!used[i]) index_residual.push_back(hash_preds[i].orig);
            }
            SM_RETURN_IF_ERROR(probe_step(
                [&](const RowEnv& inner, ExecStats* stats,
                    std::vector<int>* ids) -> Lookup {
                  SM_ASSIGN_OR_RETURN(Row key, EvalKey(key_exprs, inner));
                  ++stats->index_probes;
                  ids->clear();
                  match->index->ProbeEqual(key, ids);
                  return ids;
                },
                table_row, &ExecStats::index_rows_fetched, index_residual));
            step_done = true;
          }
        } else {
          // Range probe through an ordered index (condition-magic shapes:
          // a c-adorned restriction like t.c < <bound>). The probed
          // conjunct is re-checked with the other residuals, so the index
          // only narrows the scan.
          const Expr* range_pred = nullptr;
          ColumnComparison range_cc;
          for (const Expr* f : residual) {
            ColumnComparison cc;
            if (!MatchColumnComparisonFor(*f, q->id, &cc)) continue;
            if (cc.op != BinaryOp::kLt && cc.op != BinaryOp::kLtEq &&
                cc.op != BinaryOp::kGt && cc.op != BinaryOp::kGtEq) {
              continue;
            }
            bool available = true;
            for (int rid : cc.other->ReferencedQuantifiers()) {
              if (rid == q->id ||
                  (own_qids.count(rid) && !seen.count(rid))) {
                available = false;
                break;
              }
            }
            if (available) {
              range_pred = f;
              range_cc = cc;
              break;
            }
          }
          const SecondaryIndex* ordered =
              range_pred == nullptr
                  ? nullptr
                  : catalog_->FindOrderedIndexOn(
                        q->input->table_name(),
                        range_cc.column->column_index);
          if (ordered != nullptr) {
            const bool upper = range_cc.op == BinaryOp::kLt ||
                               range_cc.op == BinaryOp::kLtEq;
            const bool inclusive = range_cc.op == BinaryOp::kLtEq ||
                                   range_cc.op == BinaryOp::kGtEq;
            SM_RETURN_IF_ERROR(probe_step(
                [&](const RowEnv& inner, ExecStats* stats,
                    std::vector<int>* ids) -> Lookup {
                  SM_ASSIGN_OR_RETURN(Value v,
                                      EvalScalar(*range_cc.other, inner));
                  ++stats->index_probes;
                  ids->clear();
                  ordered->ProbeRange(upper ? nullptr : &v, inclusive,
                                      upper ? &v : nullptr, inclusive, ids);
                  return ids;
                },
                table_row, &ExecStats::index_rows_fetched, residual));
            step_done = true;
          }
        }
      }
    }

    if (step_done) {
      // handled above via a secondary index
    } else if (correlated_here) {
      // Nested-loop: evaluate the input once per current combination.
      Table scratch;
      for (const auto& combo : current) {
        RowEnv inner(&box_env);
        for (size_t i = 0; i < bound.size(); ++i) {
          inner.Bind(bound[i], combo[i]);
        }
        SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, inner, &scratch));
        stats_.rows_scanned += t->num_rows();
        for (const Row& row : t->rows()) {
          inner.Bind(q->id, &row);
          bool keep = true;
          for (const Expr* f : filters) {
            ++stats_.join_probes;
            SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*f, inner));
            if (v != TriBool::kTrue) {
              keep = false;
              break;
            }
          }
          if (!keep) continue;
          arena.push_back(row);
          // Charge the copied row only; the combination pointing at it is
          // charged with the rest of `next` at the end of the step.
          int64_t rb = RowBytes(arena.back());
          arena_bytes += rb;
          SM_RETURN_IF_ERROR(gov->Reserve(rb));
          auto combo2 = combo;
          combo2.push_back(&arena.back());
          next.push_back(std::move(combo2));
          if (static_cast<int64_t>(next.size()) > options_.max_rows_per_box) {
            return Status::ExecutionError("row limit exceeded during join");
          }
        }
        inner.Unbind(q->id);
      }
    } else {
      Table scratch;
      SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, box_env, &scratch));
      std::vector<const Row*> input_rows;
      if (t == &scratch) {
        // Non-memoized storage would not outlive this step; copy the rows
        // into the arena for stable pointers.
        for (const Row& row : scratch.rows()) arena.push_back(row);
        auto it = arena.end() - scratch.num_rows();
        for (; it != arena.end(); ++it) input_rows.push_back(&*it);
        int64_t sb = TableBytes(scratch);
        arena_bytes += sb;
        SM_RETURN_IF_ERROR(gov->Reserve(sb));
      } else {
        input_rows.reserve(static_cast<size_t>(t->num_rows()));
        for (const Row& row : t->rows()) input_rows.push_back(&row);
      }
      stats_.rows_scanned += static_cast<int64_t>(input_rows.size());

      if (!hash_preds.empty()) {
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
        for (size_t ri = 0; ri < input_rows.size(); ++ri) {
          Row key;
          key.reserve(hash_preds.size());
          for (const HashPred& hp : hash_preds) {
            key.push_back(
                (*input_rows[ri])[static_cast<size_t>(hp.own_side->column_index)]);
          }
          build_chunk += RowBytes(key) + static_cast<int64_t>(sizeof(int));
          if (--build_until_check == 0) {
            build_until_check = check_stride;
            build_bytes += build_chunk;
            SM_RETURN_IF_ERROR(gov->Reserve(build_chunk));
            build_chunk = 0;
          }
          table.Insert(std::move(key), static_cast<int>(ri));
        }
        if (build_chunk > 0) {
          build_bytes += build_chunk;
          SM_RETURN_IF_ERROR(gov->Reserve(build_chunk));
        }
        // The build table is shared read-only by every probing morsel.
        SM_RETURN_IF_ERROR(probe_step(
            [&](const RowEnv& inner, ExecStats* stats,
                std::vector<int>*) -> Lookup {
              SM_ASSIGN_OR_RETURN(Row key, EvalKey(hash_keys, inner));
              ++stats->join_probes;
              return table.Probe(key);
            },
            [&input_rows](int ri) {
              return input_rows[static_cast<size_t>(ri)];
            },
            &ExecStats::rows_scanned, residual));
        // The build table dies with this step, but its bytes are held
        // until the end-of-step coordinator point below: parallel probes
        // charge output combos while the build table is live, so the
        // sequential path must keep it charged until `next` is charged
        // too, or peak bytes would differ by thread count.
        step_build_bytes = build_bytes;
      } else {
        // Nested loop with all filters (filter-only steps and joins with
        // no usable equality).
        const int64_t num_combos = static_cast<int64_t>(current.size());
        const int64_t num_input = static_cast<int64_t>(input_rows.size());
        auto scan_rows = [&](int64_t cb, int64_t ce, int64_t rb, int64_t re,
                             ComboVec* out, ExecStats* stats) -> Status {
          return for_each_combo(
              cb, ce,
              [&](const std::vector<const Row*>& combo,
                  RowEnv* inner) -> Status {
                for (int64_t r = rb; r < re; ++r) {
                  const Row* row = input_rows[static_cast<size_t>(r)];
                  inner->Bind(q->id, row);
                  ++stats->join_probes;
                  SM_RETURN_IF_ERROR(AppendIfAll(filters, *inner, combo, row,
                                                 out,
                                                 options_.max_rows_per_box));
                }
                inner->Unbind(q->id);
                return Status::OK();
              });
        };
        if (num_input > num_combos && ShouldParallelize(num_input)) {
          // Partitioned scan: split the input rows (the common shape — a
          // base-table or box scan with predicate evaluation has a single
          // empty combo), one barrier per combo.
          for (int64_t ci = 0; ci < num_combos; ++ci) {
            SM_RETURN_IF_ERROR(ParallelAppend(
                num_input,
                [&](int64_t rb, int64_t re, ComboVec* out,
                    ExecStats* stats) -> Status {
                  return scan_rows(ci, ci + 1, rb, re, out, stats);
                },
                &next, &next_bytes));
          }
        } else {
          SM_RETURN_IF_ERROR(RunStep(
              num_combos,
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
      for (const auto& combo : next) next_bytes += ComboBytes(combo);
      SM_RETURN_IF_ERROR(gov->Reserve(next_bytes));
    }
    SM_RETURN_IF_ERROR(gov->CheckPoint());
    gov->Release(current_bytes + step_build_bytes);
    if (options_.progress != nullptr) {
      options_.progress->SetPeakBytes(gov->peak_bytes());
    }
    bound.push_back(q->id);
    current = std::move(next);
    current_bytes = next_bytes;
  }

  // Per-combination phase: scalar subqueries, E/A quantifiers, residual
  // predicates, projection.
  Table out(box->label(), Schema{});
  std::vector<Row> produced;
  int64_t until_check = check_stride;
  for (const auto& combo : current) {
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
    RowEnv rowenv(&box_env);
    for (size_t i = 0; i < bound.size(); ++i) rowenv.Bind(bound[i], combo[i]);

    // Remaining (correlated) scalar quantifiers, declaration order.
    std::vector<Row> scalar_rows(per_row_scalars.size());
    bool row_ok = true;
    for (size_t si = 0; si < per_row_scalars.size(); ++si) {
      Quantifier* q = per_row_scalars[si];
      Table scratch;
      SM_ASSIGN_OR_RETURN(const Table* t, EvalBox(q->input, rowenv, &scratch));
      stats_.rows_scanned += t->num_rows();
      if (t->num_rows() > 1) {
        return Status::ExecutionError(
            StrCat("scalar subquery '", q->input->label(),
                   "' returned more than one row"));
      }
      scalar_rows[si] =
          t->num_rows() == 1
              ? t->rows()[0]
              : Row(static_cast<size_t>(q->input->NumOutputs()), Value::Null());
      rowenv.Bind(q->id, &scalar_rows[si]);
      seen.insert(q->id);
    }

    // E / A quantifiers.
    for (Quantifier* q : ea_qs) {
      std::vector<const Expr*> qpreds;
      for (PredState& st : preds) {
        if (st.ea_phase && st.expr->References(q->id)) qpreds.push_back(st.expr);
      }
      Table scratch;
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
        bool found = qpreds.empty() ? t->num_rows() > 0 : false;
        for (const Row& srow : t->rows()) {
          if (found) break;
          rowenv.Bind(q->id, &srow);
          bool all_true = true;
          for (const Expr* p : qpreds) {
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
          for (const Expr* p : qpreds) {
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
    for (PredState& st : preds) {
      if (st.applied || st.ea_phase) continue;
      SM_ASSIGN_OR_RETURN(TriBool v, EvalPredicate(*st.expr, rowenv));
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
      SM_ASSIGN_OR_RETURN(Value v, EvalScalar(*col.expr, rowenv));
      out_row.push_back(std::move(v));
    }
    produced.push_back(std::move(out_row));
    if (static_cast<int64_t>(produced.size()) > options_.max_rows_per_box) {
      return Status::ExecutionError("row limit exceeded during projection");
    }
  }

  if (box->enforce_distinct()) {
    std::unordered_map<Row, bool, RowHash, RowEq> dedup;
    std::vector<Row> unique;
    unique.reserve(produced.size());
    for (Row& row : produced) {
      if (dedup.emplace(row, true).second) unique.push_back(std::move(row));
    }
    produced = std::move(unique);
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

  struct Group {
    Row key;
    std::vector<Accumulator> accs;
  };
  std::unordered_map<Row, Group, RowHash, RowEq> groups;

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
    Group g;
    g.accs = make_accs();
    groups.emplace(Row{}, std::move(g));
  }

  RowEnv rowenv(&env);
  for (const Row& row : input->rows()) {
    rowenv.Bind(q->id, &row);
    Row key;
    key.reserve(static_cast<size_t>(nkeys));
    for (int c = 0; c < nkeys; ++c) {
      SM_ASSIGN_OR_RETURN(
          Value v, EvalScalar(*box->outputs()[static_cast<size_t>(c)].expr,
                              rowenv));
      key.push_back(std::move(v));
    }
    auto it = groups.find(key);
    if (it == groups.end()) {
      Group g;
      g.key = key;
      g.accs = make_accs();
      it = groups.emplace(std::move(key), std::move(g)).first;
      it->second.key = it->first;
    }
    for (int c = nkeys; c < nout; ++c) {
      const Expr* agg = box->outputs()[static_cast<size_t>(c)].expr.get();
      Value v = Value::Int(1);  // COUNT(*) input placeholder
      if (!agg->children.empty()) {
        SM_ASSIGN_OR_RETURN(v, EvalScalar(*agg->children[0], rowenv));
      }
      SM_RETURN_IF_ERROR(it->second.accs[static_cast<size_t>(c - nkeys)].Add(v));
    }
  }

  Table out(box->label(), Schema{});
  for (auto& [key, group] : groups) {
    Row row;
    row.reserve(static_cast<size_t>(nout));
    for (const Value& v : key) row.push_back(v);
    for (Accumulator& acc : group.accs) {
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
        std::unordered_map<Row, bool, RowHash, RowEq> seen_rows;
        for (const Table* t : inputs) {
          for (const Row& row : t->rows()) {
            if (seen_rows.emplace(row, true).second) out.AppendUnchecked(row);
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
  RowEnv env;
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
