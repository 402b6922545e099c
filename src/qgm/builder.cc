#include "qgm/builder.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"

namespace starmagic {

// Alias -> quantifier bindings of one block, chained to enclosing blocks
// for correlation resolution.
struct QgmBuilder::Scope {
  Scope* parent = nullptr;
  struct Entry {
    std::string alias;
    Quantifier* quantifier;
  };
  std::vector<Entry> entries;
};

void SplitAstConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstExprKind::kBinary) {
    const auto& bin = static_cast<const AstBinary&>(e);
    if (bin.op == BinaryOp::kAnd) {
      SplitAstConjuncts(*bin.lhs, out);
      SplitAstConjuncts(*bin.rhs, out);
      return;
    }
  }
  out->push_back(&e);
}

Result<std::unique_ptr<QueryGraph>> QgmBuilder::Build(const AstBlob& blob) {
  table_boxes_.clear();
  view_boxes_.clear();
  views_in_progress_.clear();
  view_stack_.clear();
  anon_counter_ = 0;

  auto graph = std::make_unique<QueryGraph>();
  QueryGraph* g = graph.get();

  // ORDER BY / LIMIT are handled here (top level only); hand BuildBlob a
  // copy-free view of the blob by temporarily ignoring them.
  SM_ASSIGN_OR_RETURN(Box * top, BuildBlob(g, blob, nullptr, "QUERY"));
  g->set_top(top);

  for (const AstOrderItem& item : blob.order_by) {
    OrderSpec spec;
    spec.ascending = item.ascending;
    if (item.expr->kind == AstExprKind::kColumnRef) {
      const auto& ref = static_cast<const AstColumnRef&>(*item.expr);
      int col = top->FindOutput(ref.column);
      if (col < 0) {
        return Status::SemanticError(
            StrCat("ORDER BY column '", ref.column, "' is not in the output"));
      }
      spec.column = col;
    } else if (item.expr->kind == AstExprKind::kLiteral) {
      const auto& lit = static_cast<const AstLiteral&>(*item.expr);
      if (lit.value.kind() != ValueKind::kInt) {
        return Status::SemanticError("ORDER BY ordinal must be an integer");
      }
      int64_t ordinal = lit.value.int_value();
      if (ordinal < 1 || ordinal > top->NumOutputs()) {
        return Status::SemanticError(
            StrCat("ORDER BY ordinal ", ordinal, " out of range"));
      }
      spec.column = static_cast<int>(ordinal - 1);
    } else {
      return Status::NotSupported(
          "ORDER BY supports output column names and ordinals only");
    }
    g->order_by.push_back(spec);
  }
  g->limit = blob.limit;

  SM_RETURN_IF_ERROR(g->Validate());
  return graph;
}

Result<Box*> QgmBuilder::BuildBlob(QueryGraph* g, const AstBlob& blob,
                                   Scope* correlation,
                                   const std::string& label) {
  if (blob.IsSingleBlock()) {
    return BuildBlock(g, *blob.first, correlation, label);
  }
  // Left-associative chain of binary set-op boxes.
  SM_ASSIGN_OR_RETURN(Box * acc,
                      BuildBlock(g, *blob.first, correlation,
                                 StrCat(label, "_B0")));
  int i = 1;
  for (const auto& [op, block] : blob.rest) {
    SM_ASSIGN_OR_RETURN(Box * rhs, BuildBlock(g, *block, correlation,
                                              StrCat(label, "_B", i)));
    ++i;
    if (acc->NumOutputs() != rhs->NumOutputs()) {
      return Status::SemanticError(
          StrCat("set operation arity mismatch: ", acc->NumOutputs(), " vs ",
                 rhs->NumOutputs()));
    }
    Box* setop = g->NewBox(BoxKind::kSetOp, label);
    switch (op) {
      case SetOp::kUnion:
        setop->set_set_op(SetOpKind::kUnion);
        setop->set_enforce_distinct(true);
        setop->set_op_name(kOpUnion);
        break;
      case SetOp::kUnionAll:
        setop->set_set_op(SetOpKind::kUnion);
        setop->set_enforce_distinct(false);
        setop->set_op_name(kOpUnion);
        break;
      case SetOp::kExcept:
        setop->set_set_op(SetOpKind::kExcept);
        setop->set_enforce_distinct(true);
        setop->set_op_name(kOpExcept);
        break;
      case SetOp::kIntersect:
        setop->set_set_op(SetOpKind::kIntersect);
        setop->set_enforce_distinct(true);
        setop->set_op_name(kOpIntersect);
        break;
    }
    g->NewQuantifier(setop, QuantifierType::kForEach, acc, "l");
    g->NewQuantifier(setop, QuantifierType::kForEach, rhs, "r");
    for (const OutputColumn& out : acc->outputs()) {
      setop->AddOutput(out.name, nullptr);
    }
    acc = setop;
  }
  acc->set_label(label);
  return acc;
}

namespace {

// True if the AST block needs a groupby-triplet (GROUP BY clause, HAVING,
// or any aggregate in the select list).
bool NeedsGroupBy(const AstBlock& block) {
  if (!block.group_by.empty() || block.having != nullptr) return true;
  std::function<bool(const AstExpr&)> has_agg = [&](const AstExpr& e) -> bool {
    switch (e.kind) {
      case AstExprKind::kAggregate:
        return true;
      case AstExprKind::kBinary: {
        const auto& b = static_cast<const AstBinary&>(e);
        return has_agg(*b.lhs) || has_agg(*b.rhs);
      }
      case AstExprKind::kUnary:
        return has_agg(*static_cast<const AstUnary&>(e).operand);
      case AstExprKind::kIsNull:
        return has_agg(*static_cast<const AstIsNull&>(e).operand);
      case AstExprKind::kLike:
        return has_agg(*static_cast<const AstLike&>(e).operand);
      case AstExprKind::kBetween: {
        const auto& b = static_cast<const AstBetween&>(e);
        return has_agg(*b.operand) || has_agg(*b.low) || has_agg(*b.high);
      }
      default:
        return false;
    }
  };
  for (const AstSelectItem& item : block.items) {
    if (!item.is_star && has_agg(*item.expr)) return true;
  }
  return false;
}

// Collects aggregate nodes (pre-order) from an AST expression.
void CollectAstAggregates(const AstExpr& e, std::vector<const AstAggregate*>* out) {
  if (e.kind == AstExprKind::kAggregate) {
    out->push_back(static_cast<const AstAggregate*>(&e));
    return;  // no nested aggregates
  }
  switch (e.kind) {
    case AstExprKind::kBinary: {
      const auto& b = static_cast<const AstBinary&>(e);
      CollectAstAggregates(*b.lhs, out);
      CollectAstAggregates(*b.rhs, out);
      break;
    }
    case AstExprKind::kUnary:
      CollectAstAggregates(*static_cast<const AstUnary&>(e).operand, out);
      break;
    case AstExprKind::kIsNull:
      CollectAstAggregates(*static_cast<const AstIsNull&>(e).operand, out);
      break;
    case AstExprKind::kLike:
      CollectAstAggregates(*static_cast<const AstLike&>(e).operand, out);
      break;
    case AstExprKind::kBetween: {
      const auto& b = static_cast<const AstBetween&>(e);
      CollectAstAggregates(*b.operand, out);
      CollectAstAggregates(*b.low, out);
      CollectAstAggregates(*b.high, out);
      break;
    }
    default:
      break;
  }
}

std::string DeriveItemName(const AstSelectItem& item, int index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == AstExprKind::kColumnRef) {
    return static_cast<const AstColumnRef*>(item.expr.get())->column;
  }
  if (item.expr->kind == AstExprKind::kAggregate) {
    return ToLower(AggFuncName(
        static_cast<const AstAggregate*>(item.expr.get())->func));
  }
  return StrCat("col", index + 1);
}

}  // namespace

Result<Box*> QgmBuilder::BuildBlock(QueryGraph* g, const AstBlock& block,
                                    Scope* correlation,
                                    const std::string& label) {
  if (NeedsGroupBy(block)) {
    return BuildGroupByTriplet(g, block, correlation, label);
  }
  return BuildSimpleSelect(g, block, correlation, label);
}

Result<Box*> QgmBuilder::BuildSimpleSelect(QueryGraph* g, const AstBlock& block,
                                           Scope* correlation,
                                           const std::string& label) {
  Box* box = g->NewBox(BoxKind::kSelect, label);
  Scope scope;
  scope.parent = correlation;
  for (const AstTableRef& ref : block.from) {
    Box* input;
    if (ref.subquery != nullptr) {
      // Derived tables cannot see sibling or outer names (SQL-92).
      SM_ASSIGN_OR_RETURN(
          input, BuildBlob(g, *ref.subquery, nullptr,
                           ToUpper(ref.EffectiveAlias())));
    } else {
      SM_ASSIGN_OR_RETURN(input, ResolveRelation(g, ref.table_name));
    }
    Quantifier* q = g->NewQuantifier(box, QuantifierType::kForEach, input,
                                     ref.EffectiveAlias());
    scope.entries.push_back({ref.EffectiveAlias(), q});
  }
  if (block.where != nullptr) {
    std::vector<const AstExpr*> conjuncts;
    SplitAstConjuncts(*block.where, &conjuncts);
    for (const AstExpr* c : conjuncts) {
      SM_RETURN_IF_ERROR(AddConjunct(g, box, &scope, *c));
    }
  }
  int index = 0;
  for (const AstSelectItem& item : block.items) {
    if (item.is_star) {
      for (const Scope::Entry& entry : scope.entries) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(entry.alias, item.star_qualifier)) {
          continue;
        }
        const Box* input = entry.quantifier->input;
        for (int c = 0; c < input->NumOutputs(); ++c) {
          box->AddOutput(input->outputs()[static_cast<size_t>(c)].name,
                         Expr::MakeColumnRef(entry.quantifier->id, c));
          ++index;
        }
      }
      continue;
    }
    SM_ASSIGN_OR_RETURN(ExprPtr expr,
                        BuildExpr(g, box, &scope, *item.expr,
                                  /*allow_aggregates=*/false));
    box->AddOutput(DeriveItemName(item, index), std::move(expr));
    ++index;
  }
  if (box->NumOutputs() == 0) {
    return Status::SemanticError("SELECT list is empty");
  }
  box->set_enforce_distinct(block.distinct);
  return box;
}

Result<Box*> QgmBuilder::BuildGroupByTriplet(QueryGraph* g,
                                             const AstBlock& block,
                                             Scope* correlation,
                                             const std::string& label) {
  // ---- T1: SELECT-FROM-WHERE ----------------------------------------------
  Box* t1 = g->NewBox(BoxKind::kSelect, StrCat(label, "_T1"));
  Scope scope;
  scope.parent = correlation;
  for (const AstTableRef& ref : block.from) {
    Box* input;
    if (ref.subquery != nullptr) {
      SM_ASSIGN_OR_RETURN(input, BuildBlob(g, *ref.subquery, nullptr,
                                           ToUpper(ref.EffectiveAlias())));
    } else {
      SM_ASSIGN_OR_RETURN(input, ResolveRelation(g, ref.table_name));
    }
    Quantifier* q = g->NewQuantifier(t1, QuantifierType::kForEach, input,
                                     ref.EffectiveAlias());
    scope.entries.push_back({ref.EffectiveAlias(), q});
  }
  if (block.where != nullptr) {
    std::vector<const AstExpr*> conjuncts;
    SplitAstConjuncts(*block.where, &conjuncts);
    for (const AstExpr* c : conjuncts) {
      SM_RETURN_IF_ERROR(AddConjunct(g, t1, &scope, *c));
    }
  }

  // Group-key expressions over T1's scope become T1 outputs.
  std::vector<ExprPtr> key_exprs;
  for (const AstExprPtr& key_ast : block.group_by) {
    SM_ASSIGN_OR_RETURN(ExprPtr key,
                        BuildExpr(g, t1, &scope, *key_ast,
                                  /*allow_aggregates=*/false));
    key_exprs.push_back(std::move(key));
  }

  // Collect unique aggregates (structurally, after lowering their args).
  std::vector<const AstAggregate*> ast_aggs;
  for (const AstSelectItem& item : block.items) {
    if (!item.is_star) CollectAstAggregates(*item.expr, &ast_aggs);
  }
  if (block.having != nullptr) CollectAstAggregates(*block.having, &ast_aggs);

  struct LoweredAgg {
    AggFunc func;
    bool distinct;
    ExprPtr arg;  ///< over T1 quantifiers; null for COUNT(*)
  };
  std::vector<LoweredAgg> aggs;
  for (const AstAggregate* a : ast_aggs) {
    ExprPtr arg;
    if (a->func != AggFunc::kCountStar) {
      SM_ASSIGN_OR_RETURN(arg, BuildExpr(g, t1, &scope, *a->arg,
                                         /*allow_aggregates=*/false));
    }
    bool duplicate = false;
    for (const LoweredAgg& existing : aggs) {
      if (existing.func == a->func && existing.distinct == a->distinct) {
        bool same_arg =
            (existing.arg == nullptr && arg == nullptr) ||
            (existing.arg != nullptr && arg != nullptr &&
             Expr::Equals(*existing.arg, *arg));
        if (same_arg) {
          duplicate = true;
          break;
        }
      }
    }
    if (!duplicate) {
      aggs.push_back(LoweredAgg{a->func, a->distinct, std::move(arg)});
    }
  }

  // T1 output columns: keys first, then aggregate arguments.
  std::vector<int> agg_arg_col(aggs.size(), -1);
  for (size_t i = 0; i < key_exprs.size(); ++i) {
    std::string name = StrCat("gk", i + 1);
    if (key_exprs[i]->kind == ExprKind::kColumnRef) {
      const Quantifier* q = t1->FindQuantifier(key_exprs[i]->quantifier_id);
      if (q != nullptr) {
        name = q->input->outputs()[static_cast<size_t>(
                                       key_exprs[i]->column_index)]
                   .name;
      }
    }
    t1->AddOutput(name, key_exprs[i]->Clone());
  }
  for (size_t j = 0; j < aggs.size(); ++j) {
    if (aggs[j].arg == nullptr) continue;  // COUNT(*)
    agg_arg_col[j] = t1->NumOutputs();
    t1->AddOutput(StrCat("aggarg", j + 1), aggs[j].arg->Clone());
  }
  if (t1->NumOutputs() == 0) {
    // GROUP BY-less aggregate over no key and COUNT(*) only: T1 still needs
    // at least one column so a row exists to count. Emit a constant.
    t1->AddOutput("one", Expr::MakeLiteral(Value::Int(1)));
  }

  // ---- T2: GROUPBY ----------------------------------------------------------
  Box* t2 = g->NewBox(BoxKind::kGroupBy, StrCat(label, "_T2"));
  Quantifier* t2q = g->NewQuantifier(t2, QuantifierType::kForEach, t1, "t1");
  for (size_t i = 0; i < key_exprs.size(); ++i) {
    t2->AddOutput(t1->outputs()[i].name,
                  Expr::MakeColumnRef(t2q->id, static_cast<int>(i)));
  }
  t2->set_num_group_keys(static_cast<int>(key_exprs.size()));
  std::vector<int> agg_out_col(aggs.size(), -1);
  for (size_t j = 0; j < aggs.size(); ++j) {
    ExprPtr arg;
    if (agg_arg_col[j] >= 0) {
      arg = Expr::MakeColumnRef(t2q->id, agg_arg_col[j]);
    }
    agg_out_col[j] = t2->NumOutputs();
    t2->AddOutput(StrCat("agg", j + 1),
                  Expr::MakeAggregate(aggs[j].func, aggs[j].distinct,
                                      std::move(arg)));
  }

  // ---- T3: HAVING + final projection ---------------------------------------
  Box* t3 = g->NewBox(BoxKind::kSelect, label);
  Quantifier* t3q = g->NewQuantifier(t3, QuantifierType::kForEach, t2, "t2");

  // Rewrites an expression built over T1's scope into one over t3q by
  // matching group keys and aggregates.
  std::function<Status(ExprPtr*)> rewrite = [&](ExprPtr* e) -> Status {
    for (size_t i = 0; i < key_exprs.size(); ++i) {
      if (Expr::Equals(**e, *key_exprs[i])) {
        *e = Expr::MakeColumnRef(t3q->id, static_cast<int>(i));
        return Status::OK();
      }
    }
    if ((*e)->kind == ExprKind::kAggregate) {
      for (size_t j = 0; j < aggs.size(); ++j) {
        const Expr& node = **e;
        bool same_arg = (aggs[j].arg == nullptr && node.children.empty()) ||
                        (aggs[j].arg != nullptr && !node.children.empty() &&
                         Expr::Equals(*node.children[0], *aggs[j].arg));
        if (node.agg_func == aggs[j].func &&
            node.agg_distinct == aggs[j].distinct && same_arg) {
          *e = Expr::MakeColumnRef(t3q->id, agg_out_col[j]);
          return Status::OK();
        }
      }
      return Status::Internal("aggregate not collected during grouping");
    }
    for (ExprPtr& c : (*e)->children) {
      SM_RETURN_IF_ERROR(rewrite(&c));
    }
    return Status::OK();
  };
  auto check_no_t1_refs = [&](const Expr& e, const std::string& what) -> Status {
    for (int qid : e.ReferencedQuantifiers()) {
      if (t1->FindQuantifier(qid) != nullptr) {
        return Status::SemanticError(
            StrCat(what, " references a column that is neither grouped nor ",
                   "aggregated"));
      }
    }
    return Status::OK();
  };

  int index = 0;
  for (const AstSelectItem& item : block.items) {
    if (item.is_star) {
      return Status::SemanticError(
          "SELECT * cannot be combined with GROUP BY / aggregates");
    }
    SM_ASSIGN_OR_RETURN(ExprPtr expr, BuildExpr(g, t3, &scope, *item.expr,
                                                /*allow_aggregates=*/true));
    SM_RETURN_IF_ERROR(rewrite(&expr));
    SM_RETURN_IF_ERROR(check_no_t1_refs(*expr, "SELECT item"));
    t3->AddOutput(DeriveItemName(item, index), std::move(expr));
    ++index;
  }
  if (block.having != nullptr) {
    std::vector<const AstExpr*> conjuncts;
    SplitAstConjuncts(*block.having, &conjuncts);
    for (const AstExpr* c : conjuncts) {
      SM_ASSIGN_OR_RETURN(ExprPtr pred, BuildExpr(g, t3, &scope, *c,
                                                  /*allow_aggregates=*/true));
      SM_RETURN_IF_ERROR(rewrite(&pred));
      SM_RETURN_IF_ERROR(check_no_t1_refs(*pred, "HAVING"));
      t3->AddPredicate(std::move(pred));
    }
  }
  t3->set_enforce_distinct(block.distinct);
  return t3;
}

Result<Box*> QgmBuilder::ResolveRelation(QueryGraph* g,
                                         const std::string& name) {
  std::string key = ToLower(name);
  if (auto it = views_in_progress_.find(key); it != views_in_progress_.end()) {
    return it->second;
  }
  if (auto it = view_boxes_.find(key); it != view_boxes_.end()) {
    return it->second;
  }
  if (const ViewDefinition* view = catalog_->GetView(name)) {
    return BuildView(g, *view);
  }
  if (auto it = table_boxes_.find(key); it != table_boxes_.end()) {
    return it->second;
  }
  if (const Table* table = catalog_->GetTable(name)) {
    Box* box = g->NewBox(BoxKind::kBaseTable, ToUpper(name));
    box->set_table_name(table->name());
    for (const Column& col : table->schema().columns()) {
      box->AddOutput(col.name, nullptr);
    }
    if (!table->primary_key().empty()) {
      box->set_unique_key(table->primary_key());
      box->set_duplicate_free(true);
    }
    table_boxes_[key] = box;
    return box;
  }
  return Status::SemanticError(StrCat("unknown table or view '", name, "'"));
}

Result<Box*> QgmBuilder::BuildView(QueryGraph* g, const ViewDefinition& view) {
  std::string key = ToLower(view.name);
  // Meeting a view again inside its own expansion is a cycle. A recursive
  // view entered since then ends it (ResolveRelation returns that view's
  // placeholder); through plain views alone it would expand without end.
  for (auto it = view_stack_.rbegin();
       it != view_stack_.rend() && !views_in_progress_.count(*it); ++it) {
    if (*it == key) {
      return Status::SemanticError(
          StrCat("view '", view.name, "' is defined in terms of itself; ",
                 "only CREATE RECURSIVE VIEW may recur"));
    }
  }
  const AstBlob* body = view.body.get();
  if (!body->order_by.empty() || body->limit.has_value()) {
    return Status::NotSupported(
        StrCat("view '", view.name, "': ORDER BY / LIMIT not allowed in views"));
  }

  if (view.is_recursive) {
    if (body->IsSingleBlock()) {
      return Status::SemanticError(
          StrCat("recursive view '", view.name,
                 "' must be a UNION of a base case and a recursive case"));
    }
    if (view.column_names.empty()) {
      return Status::SemanticError(
          StrCat("recursive view '", view.name,
                 "' must declare its column list"));
    }
    for (const auto& [op, block] : body->rest) {
      if (op == SetOp::kUnionAll) {
        return Status::NotSupported(
            StrCat("recursive view '", view.name,
                   "' must use UNION (not UNION ALL) to terminate"));
      }
      if (op != SetOp::kUnion) {
        return Status::NotSupported(
            StrCat("recursive view '", view.name, "' must use UNION only"));
      }
    }
    Box* box = g->NewBox(BoxKind::kSetOp, ToUpper(view.name));
    box->set_set_op(SetOpKind::kUnion);
    box->set_op_name(kOpUnion);
    box->set_enforce_distinct(true);
    for (const std::string& col : view.column_names) {
      box->AddOutput(col, nullptr);
    }
    views_in_progress_[key] = box;
    view_stack_.push_back(key);
    int i = 0;
    std::vector<Box*> branches;
    branches.push_back(nullptr);
    SM_ASSIGN_OR_RETURN(branches[0],
                        BuildBlock(g, *body->first, nullptr,
                                   StrCat(ToUpper(view.name), "_B0")));
    for (const auto& [op, block] : body->rest) {
      ++i;
      Box* branch;
      SM_ASSIGN_OR_RETURN(branch, BuildBlock(g, *block, nullptr,
                                             StrCat(ToUpper(view.name), "_B", i)));
      branches.push_back(branch);
    }
    for (Box* branch : branches) {
      if (branch->NumOutputs() != box->NumOutputs()) {
        return Status::SemanticError(
            StrCat("recursive view '", view.name, "' branch arity mismatch"));
      }
      g->NewQuantifier(box, QuantifierType::kForEach, branch, "b");
    }
    views_in_progress_.erase(key);
    view_stack_.pop_back();
    view_boxes_[key] = box;
    return box;
  }

  view_stack_.push_back(key);
  SM_ASSIGN_OR_RETURN(Box * box,
                      BuildBlob(g, *body, nullptr, ToUpper(view.name)));
  view_stack_.pop_back();
  if (!view.column_names.empty()) {
    if (static_cast<int>(view.column_names.size()) != box->NumOutputs()) {
      return Status::SemanticError(
          StrCat("view '", view.name, "' declares ", view.column_names.size(),
                 " columns but its body produces ", box->NumOutputs()));
    }
    for (size_t i = 0; i < view.column_names.size(); ++i) {
      box->mutable_outputs()[i].name = view.column_names[i];
    }
  }
  view_boxes_[key] = box;
  return box;
}

Status QgmBuilder::AddConjunct(QueryGraph* g, Box* box, Scope* scope,
                               const AstExpr& conjunct) {
  // Peel NOT wrappers to expose quantified subquery predicates.
  const AstExpr* node = &conjunct;
  bool negated = false;
  while (node->kind == AstExprKind::kUnary &&
         static_cast<const AstUnary*>(node)->op == UnaryOp::kNot) {
    negated = !negated;
    node = static_cast<const AstUnary*>(node)->operand.get();
  }

  if (node->kind == AstExprKind::kExists) {
    const auto& exists = static_cast<const AstExists&>(*node);
    bool anti = exists.negated != negated;
    std::string label = StrCat("SUBQ", ++anon_counter_);
    SM_ASSIGN_OR_RETURN(Box * sub, BuildBlob(g, *exists.subquery, scope, label));
    Quantifier* q = g->NewQuantifier(
        box, anti ? QuantifierType::kAll : QuantifierType::kExistential, sub,
        ToLower(label));
    q->requires_empty = anti;
    return Status::OK();
  }

  if (node->kind == AstExprKind::kInSubquery) {
    const auto& in = static_cast<const AstInSubquery&>(*node);
    bool anti = in.negated != negated;
    std::string label = StrCat("SUBQ", ++anon_counter_);
    SM_ASSIGN_OR_RETURN(Box * sub, BuildBlob(g, *in.subquery, scope, label));
    if (sub->NumOutputs() != 1) {
      return Status::SemanticError(
          "IN subquery must produce exactly one column");
    }
    SM_ASSIGN_OR_RETURN(ExprPtr operand,
                        BuildExpr(g, box, scope, *in.operand,
                                  /*allow_aggregates=*/false));
    Quantifier* q = g->NewQuantifier(
        box, anti ? QuantifierType::kAll : QuantifierType::kExistential, sub,
        ToLower(label));
    box->AddPredicate(Expr::MakeBinary(anti ? BinaryOp::kNeq : BinaryOp::kEq,
                                       std::move(operand),
                                       Expr::MakeColumnRef(q->id, 0)));
    return Status::OK();
  }

  // Plain predicate (re-apply peeled NOTs).
  SM_ASSIGN_OR_RETURN(ExprPtr expr, BuildExpr(g, box, scope, *node,
                                              /*allow_aggregates=*/false));
  if (negated) expr = Expr::MakeUnary(UnaryOp::kNot, std::move(expr));
  box->AddPredicate(std::move(expr));
  return Status::OK();
}

Result<ExprPtr> QgmBuilder::ResolveColumn(Scope* scope,
                                          const AstColumnRef& ref) {
  for (Scope* s = scope; s != nullptr; s = s->parent) {
    if (!ref.qualifier.empty()) {
      for (const Scope::Entry& entry : s->entries) {
        if (EqualsIgnoreCase(entry.alias, ref.qualifier)) {
          int col = entry.quantifier->input->FindOutput(ref.column);
          if (col < 0) {
            return Status::SemanticError(
                StrCat("column '", ref.column, "' not found in '",
                       ref.qualifier, "'"));
          }
          return Expr::MakeColumnRef(entry.quantifier->id, col);
        }
      }
      continue;  // qualifier not in this scope; try outer
    }
    const Scope::Entry* found_entry = nullptr;
    int found_col = -1;
    for (const Scope::Entry& entry : s->entries) {
      int col = entry.quantifier->input->FindOutput(ref.column);
      if (col >= 0) {
        if (found_entry != nullptr) {
          return Status::SemanticError(
              StrCat("column '", ref.column, "' is ambiguous"));
        }
        found_entry = &entry;
        found_col = col;
      }
    }
    if (found_entry != nullptr) {
      return Expr::MakeColumnRef(found_entry->quantifier->id, found_col);
    }
  }
  return Status::SemanticError(
      StrCat("column '", ref.ToString(), "' cannot be resolved"));
}

Result<ExprPtr> QgmBuilder::BuildExpr(QueryGraph* g, Box* box, Scope* scope,
                                      const AstExpr& e, bool allow_aggregates) {
  switch (e.kind) {
    case AstExprKind::kLiteral:
      return Expr::MakeLiteral(static_cast<const AstLiteral&>(e).value);
    case AstExprKind::kColumnRef:
      return ResolveColumn(scope, static_cast<const AstColumnRef&>(e));
    case AstExprKind::kBinary: {
      const auto& bin = static_cast<const AstBinary&>(e);
      SM_ASSIGN_OR_RETURN(ExprPtr lhs,
                          BuildExpr(g, box, scope, *bin.lhs, allow_aggregates));
      SM_ASSIGN_OR_RETURN(ExprPtr rhs,
                          BuildExpr(g, box, scope, *bin.rhs, allow_aggregates));
      return Expr::MakeBinary(bin.op, std::move(lhs), std::move(rhs));
    }
    case AstExprKind::kUnary: {
      const auto& un = static_cast<const AstUnary&>(e);
      SM_ASSIGN_OR_RETURN(
          ExprPtr operand,
          BuildExpr(g, box, scope, *un.operand, allow_aggregates));
      return Expr::MakeUnary(un.op, std::move(operand));
    }
    case AstExprKind::kIsNull: {
      const auto& isn = static_cast<const AstIsNull&>(e);
      SM_ASSIGN_OR_RETURN(
          ExprPtr operand,
          BuildExpr(g, box, scope, *isn.operand, allow_aggregates));
      return Expr::MakeIsNull(std::move(operand), isn.negated);
    }
    case AstExprKind::kLike: {
      const auto& like = static_cast<const AstLike&>(e);
      SM_ASSIGN_OR_RETURN(
          ExprPtr operand,
          BuildExpr(g, box, scope, *like.operand, allow_aggregates));
      return Expr::MakeLike(std::move(operand), like.pattern, like.negated);
    }
    case AstExprKind::kBetween: {
      const auto& btw = static_cast<const AstBetween&>(e);
      SM_ASSIGN_OR_RETURN(
          ExprPtr operand,
          BuildExpr(g, box, scope, *btw.operand, allow_aggregates));
      SM_ASSIGN_OR_RETURN(ExprPtr low,
                          BuildExpr(g, box, scope, *btw.low, allow_aggregates));
      SM_ASSIGN_OR_RETURN(ExprPtr high,
                          BuildExpr(g, box, scope, *btw.high, allow_aggregates));
      ExprPtr operand_copy = operand->Clone();
      ExprPtr lower_bound =
          Expr::MakeBinary(BinaryOp::kGtEq, std::move(operand_copy),
                           std::move(low));
      ExprPtr upper_bound = Expr::MakeBinary(BinaryOp::kLtEq,
                                             std::move(operand), std::move(high));
      ExprPtr both = Expr::MakeBinary(BinaryOp::kAnd, std::move(lower_bound),
                                      std::move(upper_bound));
      if (btw.negated) both = Expr::MakeUnary(UnaryOp::kNot, std::move(both));
      return both;
    }
    case AstExprKind::kInList: {
      const auto& in = static_cast<const AstInList&>(e);
      SM_ASSIGN_OR_RETURN(
          ExprPtr operand,
          BuildExpr(g, box, scope, *in.operand, allow_aggregates));
      std::vector<ExprPtr> items;
      items.reserve(in.list.size());
      for (const AstExprPtr& item : in.list) {
        SM_ASSIGN_OR_RETURN(ExprPtr rhs,
                            BuildExpr(g, box, scope, *item, allow_aggregates));
        items.push_back(std::move(rhs));
      }
      return LowerInList(std::move(operand), std::move(items), in.negated);
    }
    case AstExprKind::kAggregate: {
      if (!allow_aggregates) {
        return Status::SemanticError(
            "aggregate function is not allowed in this context");
      }
      const auto& agg = static_cast<const AstAggregate&>(e);
      ExprPtr arg;
      if (agg.func != AggFunc::kCountStar) {
        SM_ASSIGN_OR_RETURN(arg, BuildExpr(g, box, scope, *agg.arg,
                                           /*allow_aggregates=*/false));
      }
      return Expr::MakeAggregate(agg.func, agg.distinct, std::move(arg));
    }
    case AstExprKind::kScalarSubquery: {
      const auto& sub = static_cast<const AstScalarSubquery&>(e);
      std::string label = StrCat("SCALAR", ++anon_counter_);
      SM_ASSIGN_OR_RETURN(Box * inner, BuildBlob(g, *sub.subquery, scope, label));
      if (inner->NumOutputs() != 1) {
        return Status::SemanticError(
            "scalar subquery must produce exactly one column");
      }
      Quantifier* q = g->NewQuantifier(box, QuantifierType::kScalar, inner,
                                       ToLower(label));
      return Expr::MakeColumnRef(q->id, 0);
    }
    case AstExprKind::kParameter:
      return Expr::MakeParameter(static_cast<const AstParameter&>(e).index);
    case AstExprKind::kExists:
    case AstExprKind::kInSubquery:
      return Status::NotSupported(
          "EXISTS / IN subqueries must be top-level conjuncts of WHERE");
  }
  return Status::Internal("unhandled AST expression kind");
}

}  // namespace starmagic
