#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "rewrite/transitive_range.h"

namespace starmagic {

double CostModel::BoxCost(const Box* box, const std::vector<int>& order,
                          double* out_rows) {
  auto ndv_of = [this, box](int qid, int col) -> double {
    const Quantifier* q = box->FindQuantifier(qid);
    if (q == nullptr || q->input == nullptr) return -1;
    const BoxEstimate& child = estimator_->Estimate(q->input);
    if (col < 0 || col >= static_cast<int>(child.ndv.size())) return -1;
    return child.ndv[static_cast<size_t>(col)];
  };

  switch (box->kind()) {
    case BoxKind::kBaseTable: {
      double rows = estimator_->Estimate(box).rows;
      if (out_rows != nullptr) *out_rows = rows;
      return 0.0;  // scanning is charged at the consumer
    }
    case BoxKind::kGroupBy: {
      double input_rows = estimator_->Estimate(box->quantifiers()[0]->input).rows;
      double rows = estimator_->Estimate(box).rows;
      if (out_rows != nullptr) *out_rows = rows;
      return input_rows + rows;  // hash-aggregate: scan input, emit groups
    }
    case BoxKind::kSetOp: {
      double cost = 0;
      for (const auto& q : box->quantifiers()) {
        cost += estimator_->Estimate(q->input).rows;
      }
      if (out_rows != nullptr) *out_rows = estimator_->Estimate(box).rows;
      return cost;
    }
    case BoxKind::kSelect:
    case BoxKind::kCustom:
      break;
  }

  // Left-deep hash-join pipeline over the ForEach quantifiers in `order`.
  std::set<int> own;
  for (const auto& q : box->quantifiers()) own.insert(q->id);
  std::set<int> seen;  // quantifiers available so far
  double rows = 1.0;
  double cost = 0.0;
  std::vector<const Expr*> preds;
  for (const ExprPtr& p : box->predicates()) preds.push_back(p.get());
  std::vector<bool> applied(preds.size(), false);
  // A range conjunct implied through a join equality filters early when
  // its quantifier is joined first, but its group's selectivity counts
  // once, so the box's output estimate stays the estimator's.
  const std::vector<int> groups = ImpliedRangeGroups(*box);
  std::vector<bool> group_counted(groups.size(), false);

  auto apply_ready_preds = [&]() {
    for (size_t i = 0; i < preds.size(); ++i) {
      if (applied[i]) continue;
      bool ready = true;
      for (int rid : preds[i]->ReferencedQuantifiers()) {
        if (own.count(rid) && !seen.count(rid)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      applied[i] = true;
      if (!groups.empty()) {
        const size_t group = static_cast<size_t>(groups[i]);
        if (group_counted[group]) continue;
        group_counted[group] = true;
      }
      rows *= estimator_->PredicateSelectivity(*preds[i], ndv_of);
    }
    rows = std::max(rows, 1e-3);
  };

  // Scalar subqueries independent of this box's quantifiers are bound
  // before the joins (the executor hoists them), so predicates over them
  // filter during the scans below.
  for (const auto& q : box->quantifiers()) {
    if (q->type != QuantifierType::kScalar) continue;
    bool depends = false;
    {
      std::set<int> visited;
      std::vector<const Box*> stack{q->input};
      while (!stack.empty() && !depends) {
        const Box* b = stack.back();
        stack.pop_back();
        if (b == nullptr || !visited.insert(b->id()).second) continue;
        auto scan = [&](const Expr& e) {
          e.Visit([&](const Expr& node) {
            if (node.kind == ExprKind::kColumnRef && own.count(node.quantifier_id)) {
              depends = true;
            }
          });
        };
        for (const ExprPtr& p : b->predicates()) scan(*p);
        for (const OutputColumn& out : b->outputs()) {
          if (out.expr != nullptr) scan(*out.expr);
        }
        for (const auto& cq : b->quantifiers()) stack.push_back(cq->input);
      }
    }
    if (!depends) {
      cost += estimator_->Estimate(q->input).rows;
      seen.insert(q->id);
    }
  }
  apply_ready_preds();

  auto join_step = [&](const Quantifier& q) {
    double r = estimator_->Estimate(q.input).rows;
    // A declared secondary index covering the bound columns lets the
    // executor probe per intermediate row instead of scanning/building
    // the input, so the input-size charge is skipped.
    if (UsableIndex(box, q, seen) == nullptr) {
      cost += r;  // build the hash table / scan the input
    }
    cost += rows;  // probe with the current intermediate result
    rows *= r;
    seen.insert(q.id);
    apply_ready_preds();
    cost += rows;  // matched / materialized intermediate
  };

  for (int qid : order) {
    const Quantifier* q = box->FindQuantifier(qid);
    if (q == nullptr || q->type != QuantifierType::kForEach) continue;
    join_step(*q);
  }
  // Quantifiers not in `order` (e.g. when the order is stale) appended.
  for (const auto& q : box->quantifiers()) {
    if (q->type != QuantifierType::kForEach || seen.count(q->id)) continue;
    join_step(*q);
  }
  // E / A / Scalar quantifiers: one probe per current row.
  for (const auto& q : box->quantifiers()) {
    if (q->type == QuantifierType::kForEach) continue;
    if (seen.count(q->id)) continue;  // hoisted scalar, already charged
    cost += estimator_->Estimate(q->input).rows + rows;
    if (q->type == QuantifierType::kExistential) rows *= 0.7;
    if (q->type == QuantifierType::kAll) rows *= 0.3;
    seen.insert(q->id);
    apply_ready_preds();
  }
  if (box->enforce_distinct()) cost += rows;
  if (out_rows != nullptr) *out_rows = std::max(rows, 1e-3);
  return cost;
}

const SecondaryIndex* CostModel::UsableIndex(const Box* box,
                                             const Quantifier& q,
                                             const std::set<int>& bound) const {
  if (catalog_ == nullptr) return nullptr;
  if (q.input == nullptr || q.input->kind() != BoxKind::kBaseTable) {
    return nullptr;
  }
  std::set<int> own;
  for (const auto& oq : box->quantifiers()) own.insert(oq->id);

  // Mirror the executor's split: equality conjuncts whose other side is
  // already available drive an equality probe; only when there are none
  // does a range conjunct drive an ordered-index range probe.
  std::vector<int> eq_cols;
  int range_col = -1;
  for (const ExprPtr& p : box->predicates()) {
    ColumnComparison cc;
    if (!MatchColumnComparisonFor(*p, q.id, &cc)) continue;
    bool available = true;
    for (int rid : cc.other->ReferencedQuantifiers()) {
      if (rid == q.id || (own.count(rid) && !bound.count(rid))) {
        available = false;
        break;
      }
    }
    if (!available) continue;
    if (cc.op == BinaryOp::kEq) {
      eq_cols.push_back(cc.column->column_index);
    } else if (range_col < 0 && IsRangeOp(cc.op)) {
      range_col = cc.column->column_index;
    }
  }
  if (!eq_cols.empty()) {
    std::optional<IndexMatch> match =
        catalog_->FindEqualityIndex(q.input->table_name(), eq_cols);
    return match.has_value() ? match->index : nullptr;
  }
  if (range_col >= 0) {
    return catalog_->FindOrderedIndexOn(q.input->table_name(), range_col);
  }
  return nullptr;
}

double CostModel::CorrelationMultiplier(const ColumnRefs& external) {
  if (external.empty()) return 1.0;

  double multiplier = 1.0;
  if (options_.memoized_correlation) {
    // Distinct bindings: product of the NDVs of the referenced columns.
    for (const auto& [qid, col] : external) {
      const Quantifier* q = graph_->GetQuantifier(qid);
      if (q == nullptr || q->input == nullptr) continue;
      const BoxEstimate& e = estimator_->Estimate(q->input);
      double ndv = col < static_cast<int>(e.ndv.size())
                       ? e.ndv[static_cast<size_t>(col)]
                       : e.rows / 10;
      multiplier *= std::max(1.0, ndv);
    }
  } else {
    // One evaluation per outer row: product of the owning boxes' inputs.
    std::set<int> counted;
    for (const auto& [qid, col] : external) {
      const Quantifier* q = graph_->GetQuantifier(qid);
      if (q == nullptr || q->input == nullptr) continue;
      if (!counted.insert(qid).second) continue;
      multiplier *= std::max(1.0, estimator_->Estimate(q->input).rows);
    }
  }
  return std::min(multiplier, 1e12);
}

double CostModel::GraphCost() {
  if (graph_->top() == nullptr) return 0;
  const std::map<int, ColumnRefs> external = ExternalRefs(graph_->top());
  std::set<int> seen;
  std::vector<const Box*> stack{graph_->top()};
  double total = 0;
  while (!stack.empty()) {
    const Box* b = stack.back();
    stack.pop_back();
    if (!seen.insert(b->id()).second) continue;
    total += BoxCost(b, b->join_order()) *
             CorrelationMultiplier(external.at(b->id()));
    for (const auto& q : b->quantifiers()) {
      if (q->input != nullptr) stack.push_back(q->input);
    }
  }
  return total;
}

}  // namespace starmagic
