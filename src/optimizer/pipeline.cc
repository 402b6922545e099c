#include "optimizer/pipeline.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/string_util.h"
#include "qgm/printer.h"
#include "rewrite/constant_folding.h"
#include "rewrite/correlate_rule.h"
#include "rewrite/distinct_pullup.h"
#include "rewrite/engine.h"
#include "rewrite/merge_rule.h"
#include "rewrite/projection_pruning.h"
#include "rewrite/pushdown.h"
#include "rewrite/redundant_join.h"
#include "rewrite/transitive_range.h"

namespace starmagic {

const char* StrategyName(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kOriginal:
      return "Original";
    case ExecutionStrategy::kCorrelated:
      return "Correlated";
    case ExecutionStrategy::kMagic:
      return "EMST";
  }
  return "?";
}

std::string RuleFireTable(const std::vector<RuleFireStats>& fires,
                          bool include_zero) {
  std::string out = StrCat("  ", "phase        rule                 ",
                           "fires  attempts   wall(ms)\n");
  char line[128];
  for (const RuleFireStats& f : fires) {
    if (f.fires == 0 && !include_zero) continue;
    std::snprintf(line, sizeof(line), "  %-12s %-20s %5lld %9lld %10.3f\n",
                  f.phase.c_str(), f.rule.c_str(),
                  static_cast<long long>(f.fires),
                  static_cast<long long>(f.attempts), f.wall_ms);
    out += line;
  }
  return out;
}

namespace {

void AddCommonRules(RewriteEngine* engine, const RewriteToggles& t) {
  if (t.constant_folding) engine->AddRule(std::make_unique<ConstantFoldingRule>());
  if (t.distinct_pullup) engine->AddRule(std::make_unique<DistinctPullupRule>());
  if (t.merge) engine->AddRule(std::make_unique<MergeRule>());
  // Not switchable: its conjuncts are implied, so it never changes an
  // answer, and it keeps row estimates as they were.
  engine->AddRule(std::make_unique<TransitiveRangeRule>());
  if (t.local_pushdown) {
    engine->AddRule(std::make_unique<LocalPredicatePushdownRule>());
  }
  if (t.redundant_join) engine->AddRule(std::make_unique<RedundantJoinRule>());
  if (t.projection_pruning) {
    engine->AddRule(std::make_unique<ProjectionPruningRule>());
  }
}

void Snapshot(PipelineResult* result, const PipelineOptions& options,
              const char* label, const QueryGraph& graph) {
  if (options.capture_snapshots) {
    result->snapshots.emplace_back(label, PrintGraph(graph));
  }
}

CostModel::Options CostOptionsFor(ExecutionStrategy strategy) {
  CostModel::Options opts;
  opts.memoized_correlation = strategy != ExecutionStrategy::kCorrelated;
  return opts;
}

// Folds one engine run's per-rule stats into the pipeline result under a
// phase tag, and mirrors fire counts into the metrics registry.
void RecordRun(PipelineResult* result, const PipelineOptions& options,
               const std::string& phase, const RewriteRunStats& run) {
  result->rewrite_applications += run.total_applications;
  for (const RuleRunStats& r : run.rules) {
    RuleFireStats row;
    row.phase = phase;
    row.rule = r.rule;
    row.fires = r.fires;
    row.attempts = r.attempts;
    row.wall_ms = r.wall_ms;
    result->rule_fires.push_back(std::move(row));
    if (options.metrics != nullptr && r.fires > 0) {
      options.metrics->counter(StrCat("rewrite.fires.", r.rule))->Add(r.fires);
    }
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("rewrite.passes")->Add(run.passes);
  }
}

// Adornment / magic-box census of a graph after the EMST phase — the
// attributes the paper's Figure 4 narrative tracks per phase.
void CountAdornments(const QueryGraph& graph, int* adorned, int* magic) {
  *adorned = 0;
  *magic = 0;
  for (const Box* box : graph.boxes()) {
    if (!box->adornment().empty()) ++*adorned;
    if (box->IsMagicRole()) ++*magic;
  }
}

// True when the subtree of `box` contains a groupby / set-op / custom box,
// i.e. it is an "expensive view" worth restricting with magic.
bool ContainsExpensiveView(Box* box) {
  std::set<int> seen;
  std::vector<Box*> stack{box};
  while (!stack.empty()) {
    Box* b = stack.back();
    stack.pop_back();
    if (!seen.insert(b->id()).second) continue;
    if (b->kind() == BoxKind::kGroupBy || b->kind() == BoxKind::kSetOp ||
        b->kind() == BoxKind::kCustom ||
        (b->kind() == BoxKind::kSelect && b->enforce_distinct())) {
      return true;
    }
    for (const auto& q : b->quantifiers()) {
      if (q->input != nullptr) stack.push_back(q->input);
    }
  }
  return false;
}

// The sips-friendly join order of every select box where it differs from
// the current order: quantifiers over expensive views move after the
// restricting quantifiers (stable within each class). Keyed by box id, so
// the orders apply to a Clone of `graph` too. Empty when no join order
// would change, i.e. the sips candidate would repeat the optimizer-order
// candidate exactly.
std::map<int, std::vector<int>> SipsFriendlyOrders(const QueryGraph& graph) {
  std::map<int, std::vector<int>> changed;
  for (Box* box : graph.boxes()) {
    if (box->kind() != BoxKind::kSelect && box->kind() != BoxKind::kCustom) {
      continue;
    }
    std::vector<Quantifier*> order = OrderedForEachQuantifiers(box);
    if (order.size() < 2) continue;
    std::vector<Quantifier*> sips = order;
    std::stable_partition(sips.begin(), sips.end(), [](Quantifier* q) {
      return !ContainsExpensiveView(q->input);
    });
    if (sips == order) continue;
    std::vector<int>& ids = changed[box->id()];
    for (Quantifier* q : sips) ids.push_back(q->id);
  }
  return changed;
}

}  // namespace

Result<PipelineResult> OptimizeQuery(std::unique_ptr<QueryGraph> graph,
                                     const Catalog* catalog,
                                     const PipelineOptions& options) {
  PipelineResult result;
  Tracer* tracer = options.tracer;
  SpanScope optimize_span(tracer, "optimize", "optimizer");
  optimize_span.SetAttribute("strategy", StrategyName(options.strategy));

  RewriteContext ctx;
  ctx.graph = graph.get();
  ctx.catalog = catalog;
  ctx.tracer = tracer;

  Snapshot(&result, options, "initial", *graph);

  // ---- Phase 1: join-order-independent rewrites -----------------------------
  {
    SpanScope span(tracer, "phase1-rewrite", "optimizer");
    RewriteEngine engine;
    engine.set_tracer(tracer);
    AddCommonRules(&engine, options.toggles);
    SM_ASSIGN_OR_RETURN(RewriteRunStats run, engine.Run(&ctx));
    RecordRun(&result, options, "phase1", run);
    span.SetAttribute("fires", static_cast<int64_t>(run.total_applications));
    span.SetAttribute("passes", static_cast<int64_t>(run.passes));
  }
  Snapshot(&result, options, "after-phase1", *graph);

  // ---- Plan optimization #1 (join orders + cost C1) --------------------------
  {
    SpanScope span(tracer, "plan-optimize-1", "optimizer");
    PlanInfo plan1 =
        OptimizePlan(graph.get(), catalog, CostOptionsFor(options.strategy));
    result.cost_no_emst = plan1.total_cost;
    span.SetAttribute("C1", plan1.total_cost);
  }

  if (options.strategy == ExecutionStrategy::kOriginal) {
    result.graph = std::move(graph);
    return result;
  }

  if (options.strategy == ExecutionStrategy::kCorrelated) {
    SpanScope span(tracer, "correlate-rewrite", "optimizer");
    RewriteEngine engine;
    engine.set_tracer(tracer);
    engine.AddRule(std::make_unique<CorrelateRule>());
    AddCommonRules(&engine, options.toggles);
    SM_ASSIGN_OR_RETURN(RewriteRunStats run, engine.Run(&ctx));
    RecordRun(&result, options, "correlate", run);
    Snapshot(&result, options, "after-correlate", *graph);
    PlanInfo plan2 = OptimizePlan(graph.get(), catalog,
                                  CostOptionsFor(options.strategy));
    result.cost_with_emst = plan2.total_cost;
    span.SetAttribute("C2", plan2.total_cost);
    result.graph = std::move(graph);
    return result;
  }

  // ---- Magic: keep the no-EMST plan for the §3.2 comparison ------------------
  // Every graph the comparison may return is validated before it is
  // costed: this phase-1 graph (and so its no-EMST clone) here, each EMST
  // candidate after its phase 3.
  SM_RETURN_IF_ERROR(graph->Validate());
  std::unique_ptr<QueryGraph> no_emst = graph->Clone();
  // The sips-order candidate runs only when it reorders some join: with
  // every order unchanged it would rebuild the same graph and the same C2,
  // which the strict `<` below never prefers.
  std::unique_ptr<QueryGraph> sips_variant;
  if (options.try_sips_order) {
    std::map<int, std::vector<int>> sips_orders = SipsFriendlyOrders(*graph);
    if (!sips_orders.empty()) {
      sips_variant = graph->Clone();
      for (auto& [box_id, order] : sips_orders) {
        sips_variant->GetBox(box_id)->set_join_order(std::move(order));
      }
    }
  }

  // Phases 2 and 3 on one candidate graph; returns the plan-2 cost.
  auto run_emst_phases = [&](QueryGraph* g, const char* tag,
                             bool snapshot) -> Result<double> {
    RewriteContext phase_ctx;
    phase_ctx.graph = g;
    phase_ctx.catalog = catalog;
    phase_ctx.tracer = tracer;
    {
      SpanScope span(tracer, StrCat("phase2-emst", tag), "optimizer");
      RewriteEngine engine;
      engine.set_tracer(tracer);
      engine.AddRule(std::make_unique<EmstRule>(options.emst, no_emst.get()));
      AddCommonRules(&engine, options.toggles);
      SM_ASSIGN_OR_RETURN(RewriteRunStats run, engine.Run(&phase_ctx));
      RecordRun(&result, options, StrCat("phase2", tag), run);
      int adorned = 0;
      int magic = 0;
      CountAdornments(*g, &adorned, &magic);
      span.SetAttribute("fires", static_cast<int64_t>(run.total_applications));
      span.SetAttribute("adorned_boxes", static_cast<int64_t>(adorned));
      span.SetAttribute("magic_boxes", static_cast<int64_t>(magic));
      if (options.metrics != nullptr) {
        options.metrics->counter("pipeline.adorned_boxes")->Add(adorned);
        options.metrics->counter("pipeline.magic_boxes")->Add(magic);
      }
    }
    if (snapshot) {
      Snapshot(&result, options, StrCat("after-phase2", tag).c_str(), *g);
    }
    // Vestigial magic links would keep dead magic boxes alive; clear them
    // so the cleanup merges of Example 4.1 can collect everything unused.
    for (Box* box : g->boxes()) box->set_magic_box(nullptr);
    g->GarbageCollect();
    {
      SpanScope span(tracer, StrCat("phase3-cleanup", tag), "optimizer");
      RewriteEngine engine;
      engine.set_tracer(tracer);
      AddCommonRules(&engine, options.toggles);
      SM_ASSIGN_OR_RETURN(RewriteRunStats run, engine.Run(&phase_ctx));
      RecordRun(&result, options, StrCat("phase3", tag), run);
      span.SetAttribute("fires", static_cast<int64_t>(run.total_applications));
    }
    if (snapshot) {
      Snapshot(&result, options, StrCat("after-phase3", tag).c_str(), *g);
    }
    Status valid = g->Validate();
    if (!valid.ok()) {
      return Status::Internal(StrCat("EMST candidate \"", tag,
                                     "\" is invalid: ", valid.message()));
    }
    SpanScope span(tracer, StrCat("plan-optimize-2", tag), "optimizer");
    PlanInfo plan2 = OptimizePlan(g, catalog, CostOptionsFor(options.strategy));
    span.SetAttribute("C2", plan2.total_cost);
    return plan2.total_cost;
  };

  SM_ASSIGN_OR_RETURN(double cost_opt_order,
                      run_emst_phases(graph.get(), "", true));
  result.emst_applied = true;
  double cost_sips_order = std::numeric_limits<double>::infinity();
  if (sips_variant != nullptr) {
    SM_ASSIGN_OR_RETURN(
        cost_sips_order,
        run_emst_phases(sips_variant.get(), "-sips",
                        options.capture_snapshots));
  }

  // ---- Step 5: pick the cheapest of the candidate plans ----------------------
  std::unique_ptr<QueryGraph>* winner = &graph;
  result.cost_with_emst = cost_opt_order;
  if (cost_sips_order < cost_opt_order) {
    winner = &sips_variant;
    result.cost_with_emst = cost_sips_order;
  }
  if (options.cost_compare && result.cost_no_emst < result.cost_with_emst) {
    result.emst_chosen = false;
    result.graph = std::move(no_emst);
  } else {
    result.emst_chosen = true;
    result.graph = std::move(*winner);
  }
  optimize_span.SetAttribute("C1", result.cost_no_emst);
  optimize_span.SetAttribute("C2", result.cost_with_emst);
  optimize_span.SetAttribute("emst_chosen", result.emst_chosen);
  optimize_span.SetAttribute(
      "rewrite_applications", static_cast<int64_t>(result.rewrite_applications));
  if (options.metrics != nullptr) {
    options.metrics->counter("pipeline.optimizations")->Add(1);
    if (result.emst_chosen) {
      options.metrics->counter("pipeline.emst_chosen")->Add(1);
    }
  }
  return result;
}

}  // namespace starmagic
