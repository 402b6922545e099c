#ifndef STARMAGIC_OPTIMIZER_JOIN_ORDER_H_
#define STARMAGIC_OPTIMIZER_JOIN_ORDER_H_

#include <vector>

#include "optimizer/cost_model.h"

namespace starmagic {

/// Chooses a ForEach join order for one box. Selinger-style left-deep
/// dynamic programming for up to `kDpLimit` quantifiers, greedy
/// (cheapest-next) beyond. Respects correlation constraints: a quantifier
/// whose input subtree references other quantifiers of the box is ordered
/// after all of them.
struct JoinOrderResult {
  std::vector<int> order;  ///< quantifier ids
  double cost = 0;
};

inline constexpr int kDpLimit = 10;

JoinOrderResult ChooseJoinOrder(const Box* box, CostModel* cost_model);

}  // namespace starmagic

#endif  // STARMAGIC_OPTIMIZER_JOIN_ORDER_H_
