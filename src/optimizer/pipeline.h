#ifndef STARMAGIC_OPTIMIZER_PIPELINE_H_
#define STARMAGIC_OPTIMIZER_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "magic/emst_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan_choice.h"
#include "optimizer/plan_optimizer.h"
#include "rewrite/engine.h"

namespace starmagic {

/// How a query is optimized/executed — the three columns of Table 1.
enum class ExecutionStrategy {
  kOriginal,    ///< phase-1 rewrites only; views materialized in full
  kCorrelated,  ///< phase-1 + correlation rewrite (DB2-style nested views)
  kMagic,       ///< the full EMST pipeline of §3.2/§3.3
};

const char* StrategyName(ExecutionStrategy strategy);

/// Rewrite rule toggles (all phase-agnostic rules).
struct RewriteToggles {
  bool merge = true;
  bool local_pushdown = true;
  bool distinct_pullup = true;
  bool redundant_join = true;
  bool constant_folding = true;
  bool projection_pruning = true;
};

struct PipelineOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kMagic;
  RewriteToggles toggles;
  EmstOptions emst;
  /// Step 5 of the §3.2 heuristic: keep the cheaper of the pre-/post-EMST
  /// plans. Disabling always takes the transformed plan.
  bool cost_compare = true;
  /// Additionally apply EMST under a sideways-information-friendly join
  /// order (restricting quantifiers before expensive views) and let the
  /// cost comparison pick among {no-EMST, EMST@optimizer-order,
  /// EMST@sips-order}. The paper notes the transformation is very
  /// sensitive to the join order (§2); DB2 experiments iterated orders
  /// manually through the optimizer (§3.2). The candidate (and its
  /// "-sips" phases) runs only when that order differs from the
  /// optimizer's in some box; otherwise it would repeat the
  /// optimizer-order candidate exactly.
  bool try_sips_order = true;
  /// Capture PrintGraph snapshots after each phase (Figure 4 bench).
  bool capture_snapshots = false;
  /// Span sink for the optimization lifecycle (phase spans with C1/C2 and
  /// adornment counts, per-rule fire events). No-op when null or disabled.
  Tracer* tracer = nullptr;
  /// Counter sink ("rewrite.fires.<rule>", "pipeline.emst_chosen", ...).
  MetricsRegistry* metrics = nullptr;
};

/// Renders `fires` as an aligned table, rows with zero fires elided unless
/// `include_zero`.
std::string RuleFireTable(const std::vector<RuleFireStats>& fires,
                          bool include_zero = false);

struct PipelineResult : PlanChoice {
  std::unique_ptr<QueryGraph> graph;  ///< the chosen, plan-optimized graph
  /// Per-phase per-rule fire breakdown (phase-1/2/3 distinguished).
  std::vector<RuleFireStats> rule_fires;
  /// (phase label, PrintGraph snapshot) pairs when capture_snapshots.
  std::vector<std::pair<std::string, std::string>> snapshots;
};

/// Runs the full optimization pipeline on `graph` per §3.2/§3.3:
///   phase-1 rewrite (join-order-independent rules) →
///   plan optimization (join orders, cost C1) →
///   [magic only] phase-2 rewrite with EMST →
///   [magic only] phase-3 cleanup rewrite →
///   plan optimization (cost C2) → pick the cheaper plan.
/// The Correlated strategy replaces the EMST phases with the correlation
/// rewrite (no cost comparison — it mimics the fixed DB2 technique).
Result<PipelineResult> OptimizeQuery(std::unique_ptr<QueryGraph> graph,
                                     const Catalog* catalog,
                                     const PipelineOptions& options);

}  // namespace starmagic

#endif  // STARMAGIC_OPTIMIZER_PIPELINE_H_
