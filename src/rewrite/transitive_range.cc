#include "rewrite/transitive_range.h"

#include <optional>

#include "sys/system_tables.h"

namespace starmagic {

namespace {

bool IsRangeComparison(const Expr& e) {
  return e.kind == ExprKind::kBinary && IsRangeOp(e.bin_op);
}

bool IsOwnForEachColumn(const Box& box, const Expr& e) {
  if (e.kind != ExprKind::kColumnRef) return false;
  const Quantifier* q = box.FindQuantifier(e.quantifier_id);
  return q != nullptr && q->type == QuantifierType::kForEach;
}

// `a = b` between columns of two different ForEach quantifiers of `box`.
bool IsJoinEquality(const Box& box, const Expr& e) {
  return e.kind == ExprKind::kBinary && e.bin_op == BinaryOp::kEq &&
         IsOwnForEachColumn(box, *e.children[0]) &&
         IsOwnForEachColumn(box, *e.children[1]) &&
         e.children[0]->quantifier_id != e.children[1]->quantifier_id;
}

// True when `box` has both a join equality and a range conjunct; checked
// before anything is allocated, since most boxes have neither.
bool HasBothShapes(const Box& box) {
  bool equality = false;
  bool range = false;
  for (const ExprPtr& p : box.predicates()) {
    equality = equality || IsJoinEquality(box, *p);
    range = range || IsRangeComparison(*p);
    if (equality && range) return true;
  }
  return false;
}

// The other side of `eq` when it is a join equality with `a` on one side.
const Expr* EqualityPartner(const Box& box, const Expr& eq, const Expr& a) {
  if (!IsJoinEquality(box, eq)) return nullptr;
  if (Expr::Equals(*eq.children[0], a)) return eq.children[1].get();
  if (Expr::Equals(*eq.children[1], a)) return eq.children[0].get();
  return nullptr;
}

// `col op x` is a conjunct of `box`, written either way round.
bool HasComparison(const Box& box, const Expr& col, BinaryOp op,
                   const Expr& x) {
  for (const ExprPtr& p : box.predicates()) {
    if (p->kind != ExprKind::kBinary || !IsComparisonOp(p->bin_op)) continue;
    const Expr& l = *p->children[0];
    const Expr& r = *p->children[1];
    if ((p->bin_op == op && Expr::Equals(l, col) && Expr::Equals(r, x)) ||
        (MirrorOp(p->bin_op) == op && Expr::Equals(r, col) &&
         Expr::Equals(l, x))) {
      return true;
    }
  }
  return false;
}

// The ColumnType every non-NULL value of `e` has, traced through column
// references and MIN/MAX to stored columns and literals; nullopt when
// unknown. Set-op columns are unknown, so the trace follows no cycle (a
// recursive view's cycle passes through its UNION); `depth` bounds it
// regardless.
std::optional<ColumnType> StaticType(const QueryGraph& graph,
                                     const Catalog* catalog, const Expr& e,
                                     int depth = 0) {
  if (depth > 64) return std::nullopt;
  switch (e.kind) {
    case ExprKind::kLiteral:
      switch (e.literal.kind()) {
        case ValueKind::kBool:
          return ColumnType::kBool;
        case ValueKind::kInt:
          return ColumnType::kInt;
        case ValueKind::kDouble:
          return ColumnType::kDouble;
        case ValueKind::kString:
          return ColumnType::kString;
        case ValueKind::kNull:
          return std::nullopt;
      }
      return std::nullopt;
    case ExprKind::kAggregate:
      if (e.agg_func != AggFunc::kMin && e.agg_func != AggFunc::kMax) {
        return std::nullopt;
      }
      return StaticType(graph, catalog, *e.children[0], depth + 1);
    case ExprKind::kColumnRef:
      break;
    default:  // arithmetic, parameters, ...
      return std::nullopt;
  }
  const Quantifier* q = graph.GetQuantifier(e.quantifier_id);
  if (q == nullptr || q->input == nullptr) return std::nullopt;
  const Box& box = *q->input;
  const int col = e.column_index;
  if (col < 0 || col >= box.NumOutputs()) return std::nullopt;
  switch (box.kind()) {
    case BoxKind::kBaseTable: {
      // A sys.* name would materialize its snapshot on lookup.
      if (catalog == nullptr || IsSysTableName(box.table_name())) {
        return std::nullopt;
      }
      const Table* table = catalog->GetTable(box.table_name());
      if (table == nullptr || col >= table->schema().num_columns()) {
        return std::nullopt;
      }
      return table->schema().column(col).type;
    }
    case BoxKind::kSelect:
    case BoxKind::kGroupBy: {
      const Expr* def = box.outputs()[static_cast<size_t>(col)].expr.get();
      if (def == nullptr) return std::nullopt;
      return StaticType(graph, catalog, *def, depth + 1);
    }
    default:
      return std::nullopt;
  }
}

// The checks of the class comment on X, b's quantifier and the types.
bool CanDerive(const RewriteContext& ctx, const Box& box, const Expr& a,
               const Expr& b, const Expr& x) {
  if (box.FindQuantifier(b.quantifier_id)->input->kind() !=
      BoxKind::kBaseTable) {
    return false;
  }
  if (x.kind == ExprKind::kColumnRef) {
    const Quantifier* xq = ctx.graph->GetQuantifier(x.quantifier_id);
    if (xq == nullptr || x.quantifier_id == b.quantifier_id ||
        (xq->type != QuantifierType::kForEach &&
         xq->type != QuantifierType::kScalar)) {
      return false;
    }
  } else if (x.kind != ExprKind::kLiteral) {
    return false;
  }
  const QueryGraph& g = *ctx.graph;
  std::optional<ColumnType> type = StaticType(g, ctx.catalog, x);
  if (!type.has_value() || *type == ColumnType::kDouble) return false;
  return StaticType(g, ctx.catalog, a) == type &&
         StaticType(g, ctx.catalog, b) == type;
}

}  // namespace

Result<bool> TransitiveRangeRule::Apply(RewriteContext* ctx, Box* box) {
  if (box->kind() != BoxKind::kSelect || !HasBothShapes(*box)) return false;
  std::vector<ExprPtr>& preds = box->mutable_predicates();
  bool changed = false;
  // Derived conjuncts are appended and offered in turn, so one sweep
  // follows chains (a = b, b = c) to the closure.
  for (size_t i = 0; i < preds.size(); ++i) {
    const Expr& range = *preds[i];
    if (!IsRangeComparison(range)) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr& a = *range.children[static_cast<size_t>(side)];
      const Expr& x = *range.children[static_cast<size_t>(1 - side)];
      if (a.kind != ExprKind::kColumnRef) continue;
      const BinaryOp op = side == 0 ? range.bin_op : MirrorOp(range.bin_op);
      for (size_t j = 0; j < preds.size(); ++j) {
        const Expr* b = EqualityPartner(*box, *preds[j], a);
        if (b == nullptr || !CanDerive(*ctx, *box, a, *b, x) ||
            HasComparison(*box, *b, op, x)) {
          continue;
        }
        preds.push_back(Expr::MakeBinary(op, b->Clone(), x.Clone()));
        changed = true;
      }
    }
  }
  return changed;
}

std::vector<int> ImpliedRangeGroups(const Box& box) {
  // A group needs two range conjuncts.
  const std::vector<ExprPtr>& preds = box.predicates();
  int ranges = 0;
  for (const ExprPtr& p : preds) ranges += IsRangeComparison(*p) ? 1 : 0;
  if (ranges < 2 || !HasBothShapes(box)) return {};

  // Union-find over the columns the join equalities connect.
  std::vector<const Expr*> cols;
  std::vector<int> parent;
  auto index_of = [&](const Expr& e) {
    for (size_t k = 0; k < cols.size(); ++k) {
      if (Expr::Equals(*cols[k], e)) return static_cast<int>(k);
    }
    return -1;
  };
  auto find = [&](int k) {
    while (parent[static_cast<size_t>(k)] != k) {
      k = parent[static_cast<size_t>(k)];
    }
    return k;
  };
  for (const ExprPtr& p : preds) {
    if (!IsJoinEquality(box, *p)) continue;
    int ends[2];
    for (int s = 0; s < 2; ++s) {
      const Expr& c = *p->children[static_cast<size_t>(s)];
      ends[s] = index_of(c);
      if (ends[s] < 0) {
        ends[s] = static_cast<int>(cols.size());
        cols.push_back(&c);
        parent.push_back(ends[s]);
      }
    }
    parent[static_cast<size_t>(find(ends[0]))] = find(ends[1]);
  }
  auto class_of = [&](const Expr& e) {
    int k = e.kind == ExprKind::kColumnRef ? index_of(e) : -1;
    return k < 0 ? -1 : find(k);
  };

  // A range conjunct's key: its columns replaced by their classes, with
  // the lower class (or the only one) on the left.
  struct Key {
    int left = -1;  ///< class of the column side; -1: no group
    BinaryOp op = BinaryOp::kEq;
    int right = -1;  ///< class of the other side, or -1
    const Expr* other = nullptr;
  };
  std::vector<Key> keys(preds.size());
  std::vector<int> group(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    group[i] = static_cast<int>(i);
    const Expr& p = *preds[i];
    if (!IsRangeComparison(p)) continue;
    int l = class_of(*p.children[0]);
    int r = class_of(*p.children[1]);
    if (l < 0 && r < 0) continue;
    Key& key = keys[i];
    if (l >= 0 && (r < 0 || l <= r)) {
      key = {l, p.bin_op, r, p.children[1].get()};
    } else {
      key = {r, MirrorOp(p.bin_op), l, p.children[0].get()};
    }
    for (size_t j = 0; j < i; ++j) {
      const Key& other = keys[j];
      if (other.left == key.left && other.op == key.op &&
          other.right == key.right &&
          (key.right >= 0 || Expr::Equals(*other.other, *key.other))) {
        group[i] = group[j];
        break;
      }
    }
  }
  return group;
}

}  // namespace starmagic
