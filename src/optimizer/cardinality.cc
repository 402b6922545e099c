#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "rewrite/transitive_range.h"

namespace starmagic {

namespace {
constexpr double kRangeSelectivity = 1.0 / 3.0;
constexpr double kLikeSelectivity = 0.25;
constexpr double kDefaultSelectivity = 1.0 / 3.0;
constexpr double kSemiJoinSelectivity = 0.7;
constexpr double kAntiJoinSelectivity = 0.3;

double Cap(double v, double cap) { return std::max(1.0, std::min(v, cap)); }
}  // namespace

const BoxEstimate& CardinalityEstimator::Estimate(const Box* box) {
  auto it = memo_.find(box->id());
  if (it != memo_.end()) return it->second;
  if (in_progress_.count(box->id())) {
    // Recursive cycle: seed with a guess; the caller's estimate converges
    // on a single pass (we do not iterate to a fixpoint).
    BoxEstimate guess;
    guess.rows = kDefaultRows;
    guess.ndv.assign(static_cast<size_t>(box->NumOutputs()),
                     std::sqrt(kDefaultRows));
    return memo_.emplace(box->id(), std::move(guess)).first->second;
  }
  in_progress_.insert(box->id());
  BoxEstimate est = Compute(box);
  in_progress_.erase(box->id());
  // A recursive guess may already be present; overwrite with the computed
  // value (better for subsequent callers).
  memo_[box->id()] = std::move(est);
  return memo_[box->id()];
}

double CardinalityEstimator::PredicateSelectivity(
    const Expr& pred, const std::function<double(int, int)>& ndv_of) {
  switch (pred.kind) {
    case ExprKind::kBinary: {
      switch (pred.bin_op) {
        case BinaryOp::kAnd:
          return PredicateSelectivity(*pred.children[0], ndv_of) *
                 PredicateSelectivity(*pred.children[1], ndv_of);
        case BinaryOp::kOr: {
          double a = PredicateSelectivity(*pred.children[0], ndv_of);
          double b = PredicateSelectivity(*pred.children[1], ndv_of);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq: {
          const Expr* l = pred.children[0].get();
          const Expr* r = pred.children[1].get();
          double ndv_l = l->kind == ExprKind::kColumnRef
                             ? ndv_of(l->quantifier_id, l->column_index)
                             : -1;
          double ndv_r = r->kind == ExprKind::kColumnRef
                             ? ndv_of(r->quantifier_id, r->column_index)
                             : -1;
          if (ndv_l > 0 && ndv_r > 0) return 1.0 / std::max(ndv_l, ndv_r);
          if (ndv_l > 0) return 1.0 / ndv_l;
          if (ndv_r > 0) return 1.0 / ndv_r;
          return kDefaultSelectivity;
        }
        case BinaryOp::kNeq:
          return 1.0 - 1.0 / 10.0;
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          return kRangeSelectivity;
        default:
          return kDefaultSelectivity;
      }
    }
    case ExprKind::kUnary:
      if (pred.un_op == UnaryOp::kNot) {
        return std::max(0.0,
                        1.0 - PredicateSelectivity(*pred.children[0], ndv_of));
      }
      return kDefaultSelectivity;
    case ExprKind::kIsNull:
      return pred.negated ? 0.9 : 0.1;
    case ExprKind::kLike:
      return pred.negated ? 1.0 - kLikeSelectivity : kLikeSelectivity;
    case ExprKind::kLiteral:
      if (pred.literal.kind() == ValueKind::kBool) {
        return pred.literal.bool_value() ? 1.0 : 0.0;
      }
      return kDefaultSelectivity;
    default:
      return kDefaultSelectivity;
  }
}

BoxEstimate CardinalityEstimator::Compute(const Box* box) {
  BoxEstimate est;
  switch (box->kind()) {
    case BoxKind::kBaseTable: {
      const TableStats* stats = catalog_ != nullptr
                                    ? catalog_->GetStats(box->table_name())
                                    : nullptr;
      if (stats != nullptr) {
        est.rows = std::max<double>(1.0, static_cast<double>(stats->row_count));
        for (int i = 0; i < box->NumOutputs(); ++i) {
          double ndv =
              i < static_cast<int>(stats->columns.size())
                  ? static_cast<double>(
                        stats->columns[static_cast<size_t>(i)].distinct_count)
                  : est.rows / 10;
          est.ndv.push_back(Cap(ndv, est.rows));
        }
      } else {
        const Table* table = catalog_ != nullptr
                                 ? catalog_->GetTable(box->table_name())
                                 : nullptr;
        est.rows = table != nullptr && table->num_rows() > 0
                       ? static_cast<double>(table->num_rows())
                       : kDefaultRows;
        est.ndv.assign(static_cast<size_t>(box->NumOutputs()),
                       Cap(est.rows / 10, est.rows));
      }
      return est;
    }

    case BoxKind::kSelect:
    case BoxKind::kCustom: {
      double rows = 1.0;
      for (const auto& q : box->quantifiers()) {
        if (q->type != QuantifierType::kForEach) continue;
        rows *= Estimate(q->input).rows;
      }
      auto ndv_of = [this, box](int qid, int col) -> double {
        const Quantifier* q = box->FindQuantifier(qid);
        if (q == nullptr || q->input == nullptr) return -1;
        const BoxEstimate& child = Estimate(q->input);
        if (col < 0 || col >= static_cast<int>(child.ndv.size())) return -1;
        return child.ndv[static_cast<size_t>(col)];
      };
      // Range conjuncts implied through join equalities filter the same
      // rows: count each group once.
      const std::vector<int> groups = ImpliedRangeGroups(*box);
      for (size_t i = 0; i < box->predicates().size(); ++i) {
        if (!groups.empty() && groups[i] != static_cast<int>(i)) continue;
        rows *= PredicateSelectivity(*box->predicates()[i], ndv_of);
      }
      for (const auto& q : box->quantifiers()) {
        if (q->type == QuantifierType::kExistential) {
          rows *= kSemiJoinSelectivity;
        } else if (q->type == QuantifierType::kAll) {
          rows *= kAntiJoinSelectivity;
        }
      }
      rows = std::max(rows, 1e-3);
      for (const OutputColumn& out : box->outputs()) {
        double ndv = rows / 10;
        if (out.expr != nullptr && out.expr->kind == ExprKind::kColumnRef) {
          double child_ndv =
              ndv_of(out.expr->quantifier_id, out.expr->column_index);
          if (child_ndv > 0) ndv = child_ndv;
        } else if (out.expr != nullptr &&
                   out.expr->kind == ExprKind::kLiteral) {
          ndv = 1;
        }
        est.ndv.push_back(Cap(ndv, std::max(rows, 1.0)));
      }
      if (box->enforce_distinct()) {
        double distinct = 1.0;
        for (double d : est.ndv) distinct *= d;
        rows = std::min(rows, std::max(1.0, distinct));
      }
      est.rows = std::max(rows, 1e-3);
      return est;
    }

    case BoxKind::kGroupBy: {
      const BoxEstimate& input = Estimate(box->quantifiers()[0]->input);
      auto ndv_of = [&input](int /*qid*/, int col) -> double {
        if (col < 0 || col >= static_cast<int>(input.ndv.size())) return -1;
        return input.ndv[static_cast<size_t>(col)];
      };
      double groups = 1.0;
      for (int i = 0; i < box->num_group_keys(); ++i) {
        const Expr* key = box->outputs()[static_cast<size_t>(i)].expr.get();
        double ndv = key->kind == ExprKind::kColumnRef
                         ? ndv_of(0, key->column_index)
                         : input.rows / 10;
        if (ndv <= 0) ndv = input.rows / 10;
        groups *= std::max(1.0, ndv);
      }
      est.rows = box->num_group_keys() == 0
                     ? 1.0
                     : Cap(groups, std::max(1.0, input.rows));
      for (int i = 0; i < box->NumOutputs(); ++i) {
        est.ndv.push_back(i < box->num_group_keys()
                              ? Cap(est.rows, est.rows)
                              : Cap(est.rows / 2, est.rows));
      }
      return est;
    }

    case BoxKind::kSetOp: {
      double rows = 0.0;
      std::vector<const BoxEstimate*> inputs;
      for (const auto& q : box->quantifiers()) {
        inputs.push_back(&Estimate(q->input));
      }
      switch (box->set_op()) {
        case SetOpKind::kUnion:
          for (const BoxEstimate* e : inputs) rows += e->rows;
          break;
        case SetOpKind::kIntersect: {
          rows = inputs.empty() ? 0 : inputs[0]->rows;
          for (const BoxEstimate* e : inputs) rows = std::min(rows, e->rows);
          rows *= 0.5;
          break;
        }
        case SetOpKind::kExcept:
          rows = inputs.empty() ? 0 : inputs[0]->rows * 0.5;
          break;
      }
      rows = std::max(rows, 1.0);
      for (int i = 0; i < box->NumOutputs(); ++i) {
        double ndv = 0;
        for (const BoxEstimate* e : inputs) {
          if (i < static_cast<int>(e->ndv.size())) {
            ndv = std::max(ndv, e->ndv[static_cast<size_t>(i)]);
          }
        }
        est.ndv.push_back(Cap(ndv <= 0 ? rows / 10 : ndv, rows));
      }
      est.rows = rows;
      return est;
    }
  }
  est.rows = kDefaultRows;
  est.ndv.assign(static_cast<size_t>(box->NumOutputs()), 10.0);
  return est;
}

}  // namespace starmagic
