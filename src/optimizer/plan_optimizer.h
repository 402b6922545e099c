#ifndef STARMAGIC_OPTIMIZER_PLAN_OPTIMIZER_H_
#define STARMAGIC_OPTIMIZER_PLAN_OPTIMIZER_H_

#include <map>
#include <string>

#include "optimizer/join_order.h"

namespace starmagic {

/// Result of one plan-optimization pass (§3.2 runs this twice).
struct PlanInfo {
  double total_cost = 0;
  std::map<int, std::vector<int>> join_orders;  ///< box id -> quantifier ids
};

/// Chooses the join order of every reachable box (stored into the boxes)
/// and returns the estimated whole-graph cost.
PlanInfo OptimizePlan(QueryGraph* graph, const Catalog* catalog,
                      CostModel::Options cost_options = {});

}  // namespace starmagic

#endif  // STARMAGIC_OPTIMIZER_PLAN_OPTIMIZER_H_
