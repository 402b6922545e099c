#include "optimizer/plan_optimizer.h"

#include "common/string_util.h"
#include "rewrite/engine.h"

namespace starmagic {

PlanInfo OptimizePlan(QueryGraph* graph, const Catalog* catalog,
                      CostModel::Options cost_options) {
  PlanInfo info;
  CardinalityEstimator estimator(graph, catalog);
  CostModel cost_model(graph, &estimator, catalog, cost_options);

  // Order children before parents so the parents' estimates see the chosen
  // orders (ordering does not change cardinalities here, but keeps the
  // traversal deterministic). DepthFirstBoxes is pre-order; reverse it.
  std::vector<Box*> boxes = DepthFirstBoxes(*graph);
  for (auto it = boxes.rbegin(); it != boxes.rend(); ++it) {
    Box* box = *it;
    if (box->kind() != BoxKind::kSelect && box->kind() != BoxKind::kCustom) {
      continue;
    }
    JoinOrderResult chosen = ChooseJoinOrder(box, &cost_model);
    box->set_join_order(chosen.order);
    info.join_orders[box->id()] = chosen.order;
  }
  info.total_cost = cost_model.GraphCost();

  // Annotate base-table boxes with the access path the chosen join orders
  // imply, so Explain reports show where indexes kick in. Default every
  // stored table to "scan", then upgrade the ones a consumer probes.
  for (Box* box : boxes) {
    if (box->kind() == BoxKind::kBaseTable) box->set_access_path("scan");
  }
  for (Box* box : boxes) {
    if (box->kind() != BoxKind::kSelect && box->kind() != BoxKind::kCustom) {
      continue;
    }
    std::set<int> bound;
    for (Quantifier* q : OrderedForEachQuantifiers(box)) {
      const SecondaryIndex* index = cost_model.UsableIndex(box, *q, bound);
      if (index != nullptr && q->input->access_path() == "scan") {
        q->input->set_access_path(
            StrCat("index probe via ", index->name(), " (",
                   IndexKindName(index->kind()), ")"));
      }
      bound.insert(q->id);
    }
  }
  return info;
}

}  // namespace starmagic
