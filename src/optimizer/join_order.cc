#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>

namespace starmagic {

namespace {

struct QuantInfo {
  Quantifier* q;
  double rows;
  uint32_t deps = 0;  ///< bitmask of ForEach quantifiers this one needs first
};

// Bitmask of `fq` indexes referenced by the subtree of `start` (correlated
// inputs must be joined after their producers).
uint32_t SubtreeDeps(Box* start, const std::vector<QuantInfo>& fq) {
  std::map<int, int> bit_of;
  for (size_t i = 0; i < fq.size(); ++i) bit_of[fq[i].q->id] = static_cast<int>(i);
  uint32_t deps = 0;
  std::set<int> seen;
  std::vector<Box*> stack{start};
  while (!stack.empty()) {
    Box* b = stack.back();
    stack.pop_back();
    if (!seen.insert(b->id()).second) continue;
    auto scan = [&](const Expr& e) {
      e.Visit([&](const Expr& node) {
        if (node.kind == ExprKind::kColumnRef) {
          auto it = bit_of.find(node.quantifier_id);
          if (it != bit_of.end()) deps |= 1u << it->second;
        }
      });
    };
    for (const ExprPtr& p : b->predicates()) scan(*p);
    for (const OutputColumn& out : b->outputs()) {
      if (out.expr != nullptr) scan(*out.expr);
    }
    for (const auto& q : b->quantifiers()) {
      if (q->input != nullptr) stack.push_back(q->input);
    }
  }
  return deps;
}

}  // namespace

JoinOrderResult ChooseJoinOrder(const Box* cbox, CostModel* cost_model) {
  Box* box = const_cast<Box*>(cbox);
  JoinOrderResult result;
  if (box->kind() != BoxKind::kSelect && box->kind() != BoxKind::kCustom) {
    result.cost = cost_model->BoxCost(box, {});
    return result;
  }

  // Gather ForEach quantifiers; keep declaration order as the fallback.
  std::vector<QuantInfo> fq;
  for (const auto& q : box->quantifiers()) {
    if (q->type == QuantifierType::kForEach) {
      fq.push_back(QuantInfo{q.get(), 0, 0});
    }
  }
  if (fq.size() <= 1 || fq.size() > 28) {
    std::vector<int> decl;
    for (const QuantInfo& info : fq) decl.push_back(info.q->id);
    result.order = decl;
    result.cost = cost_model->BoxCost(box, decl);
    return result;
  }
  for (QuantInfo& info : fq) {
    info.deps = SubtreeDeps(info.q->input, fq);
  }

  int n = static_cast<int>(fq.size());
  auto evaluate = [&](const std::vector<int>& order) {
    return cost_model->BoxCost(box, order);
  };

  if (n <= kDpLimit) {
    // Left-deep DP over subsets: dp[mask] = best (cost-estimate order).
    // We rank partial orders by the full BoxCost of (prefix ++ rest), which
    // keeps one source of truth for costing.
    struct Entry {
      double cost = std::numeric_limits<double>::infinity();
      std::vector<int> order;
    };
    std::vector<Entry> dp(1u << n);
    dp[0].cost = 0;
    dp[0].order = {};
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      for (int i = 0; i < n; ++i) {
        if (!(mask & (1u << i))) continue;
        uint32_t prev = mask & ~(1u << i);
        if (dp[prev].cost == std::numeric_limits<double>::infinity()) continue;
        if ((fq[static_cast<size_t>(i)].deps & prev) !=
            fq[static_cast<size_t>(i)].deps) {
          continue;  // dependency not yet joined
        }
        std::vector<int> order = dp[prev].order;
        order.push_back(fq[static_cast<size_t>(i)].q->id);
        // Complete the order deterministically for costing.
        std::vector<int> full = order;
        for (int j = 0; j < n; ++j) {
          if (!(mask & (1u << j))) full.push_back(fq[static_cast<size_t>(j)].q->id);
        }
        double cost = evaluate(full);
        if (cost < dp[mask].cost) {
          dp[mask].cost = cost;
          dp[mask].order = std::move(order);
        }
      }
    }
    Entry& best = dp[(1u << n) - 1];
    if (best.cost != std::numeric_limits<double>::infinity()) {
      result.order = best.order;
      result.cost = best.cost;
      return result;
    }
  }

  // Greedy: repeatedly append the feasible quantifier that minimizes the
  // completed-order cost.
  std::vector<int> order;
  uint32_t done = 0;
  for (int step = 0; step < n; ++step) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best_i = -1;
    for (int i = 0; i < n; ++i) {
      if (done & (1u << i)) continue;
      if ((fq[static_cast<size_t>(i)].deps & done) !=
          fq[static_cast<size_t>(i)].deps) {
        continue;
      }
      std::vector<int> cand = order;
      cand.push_back(fq[static_cast<size_t>(i)].q->id);
      for (int j = 0; j < n; ++j) {
        if (!(done & (1u << j)) && j != i) {
          cand.push_back(fq[static_cast<size_t>(j)].q->id);
        }
      }
      double cost = evaluate(cand);
      if (cost < best_cost) {
        best_cost = cost;
        best_i = i;
      }
    }
    if (best_i < 0) {  // dependency cycle; fall back to declaration order
      order.clear();
      for (const QuantInfo& info : fq) order.push_back(info.q->id);
      break;
    }
    done |= 1u << best_i;
    order.push_back(fq[static_cast<size_t>(best_i)].q->id);
  }
  result.order = order;
  result.cost = evaluate(order);
  return result;
}

}  // namespace starmagic
