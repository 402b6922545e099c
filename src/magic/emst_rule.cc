#include "magic/emst_rule.h"

#include <algorithm>

#include "common/string_util.h"

namespace starmagic {

namespace {

// Whether a restriction on output column `col` of `target` is usable, i.e.
// the box can exploit it (AMQ joins a magic quantifier; NMQ passes it to
// children). Group-by boxes can only use restrictions on group keys.
bool ColumnUsable(const Box& target, int col) {
  switch (target.kind()) {
    case BoxKind::kSelect:
      return true;
    case BoxKind::kGroupBy: {
      if (col >= target.num_group_keys()) return false;
      const Expr* key = target.outputs()[static_cast<size_t>(col)].expr.get();
      return key != nullptr && key->kind == ExprKind::kColumnRef;
    }
    case BoxKind::kSetOp:
      return true;
    case BoxKind::kCustom: {
      const OperationTraits* traits = target.traits();
      if (traits == nullptr) return false;
      if (traits->accepts_magic_quantifier) return true;
      return traits->map_output_column != nullptr;
    }
    case BoxKind::kBaseTable:
      return false;
  }
  return false;
}

bool IsAmqBox(const Box& box) {
  if (box.kind() == BoxKind::kSelect) return true;
  if (box.kind() == BoxKind::kCustom) return box.AcceptsMagicQuantifier();
  return false;
}

// Appends a uniquely named output to `box`.
void AddUniqueOutput(Box* box, std::string base_name, ExprPtr expr) {
  std::string name = base_name;
  int suffix = 1;
  while (box->FindOutput(name) >= 0) {
    name = StrCat(base_name, "_", ++suffix);
  }
  box->AddOutput(std::move(name), std::move(expr));
}

}  // namespace

// ---------------------------------------------------------------------------
// Algorithm 4.1: adorn-box (restricted to one quantifier)
// ---------------------------------------------------------------------------

EmstRule::AdornResult EmstRule::AdornQuantifier(
    const Box& box, const Quantifier& q, const std::set<int>& eligible) const {
  AdornResult result;
  const Box& target = *q.input;
  int n = target.NumOutputs();
  std::vector<BindKind> kinds(static_cast<size_t>(n), BindKind::kFree);

  const auto& preds = box.predicates();
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    ColumnComparison cc;
    if (!MatchColumnComparisonFor(*preds[pi], q.id, &cc)) continue;
    int col = cc.column->column_index;
    if (col < 0 || col >= n) continue;
    // The information source must be entirely eligible: every quantifier
    // the other side references must precede q in the join order (sips).
    bool ok = true;
    for (int rid : cc.other->ReferencedQuantifiers()) {
      if (!eligible.count(rid)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    if (!ColumnUsable(target, col)) continue;

    if (cc.op == BinaryOp::kEq) {
      if (kinds[static_cast<size_t>(col)] == BindKind::kBound) continue;
      // Equality supersedes a previously found condition.
      if (kinds[static_cast<size_t>(col)] == BindKind::kCondition) {
        result.condition_ops.erase(col);
        for (auto it = result.bindings.begin(); it != result.bindings.end();) {
          it = it->column == col ? result.bindings.erase(it) : it + 1;
        }
      }
      kinds[static_cast<size_t>(col)] = BindKind::kBound;
      result.bindings.push_back(
          Binding{col, BinaryOp::kEq, cc.other, static_cast<int>(pi)});
    } else if (cc.op == BinaryOp::kLt || cc.op == BinaryOp::kLtEq ||
               cc.op == BinaryOp::kGt || cc.op == BinaryOp::kGtEq) {
      if (!options_.push_conditions) continue;
      if (kinds[static_cast<size_t>(col)] != BindKind::kFree) continue;
      kinds[static_cast<size_t>(col)] = BindKind::kCondition;
      result.condition_ops[col] = cc.op;
      result.bindings.push_back(
          Binding{col, cc.op, cc.other, static_cast<int>(pi)});
    }
    // <> provides no useful restriction: leave free.
  }
  std::sort(result.bindings.begin(), result.bindings.end(),
            [](const Binding& a, const Binding& b) { return a.column < b.column; });
  result.adornment = adorn::FromKinds(kinds);
  return result;
}

// ---------------------------------------------------------------------------
// Adorned copies (memoized per (box, adornment))
// ---------------------------------------------------------------------------

std::string EmstRule::MemoKey(int origin_id,
                              const AdornResult& adorn) const {
  std::string key = StrCat(origin_id, "|", adorn.adornment, "|");
  for (const auto& [col, op] : adorn.condition_ops) {
    key += StrCat(col, BinaryOpSymbol(op), ";");
  }
  return key;
}

Result<Box*> EmstRule::GetOrCreateAdornedCopy(RewriteContext* ctx,
                                              Box* target,
                                              const AdornResult& adorn) {
  // The target may itself already be an adorned copy carrying exactly this
  // adornment (adorning a copy-of-a-copy, or a recursive box reached
  // through its own body). Reuse it: the caller's magic contribution is
  // union-extended into its magic table, which is how recursive magic
  // closes the cycle.
  if (target->adornment() == adorn.adornment &&
      target->condition_ops() == adorn.condition_ops) {
    return target;
  }
  // Any other adornment is a copy of the unadorned origin, so that it gets
  // a magic source of its own: a copy of an adorned copy would inherit
  // that copy's magic quantifier and supplementary prefix. One memo entry
  // per (origin, adornment).
  auto origin_it = origins_.find(target->id());
  const int origin_id =
      origin_it == origins_.end() ? target->id() : origin_it->second;
  std::string key = MemoKey(origin_id, adorn);
  auto it = adorned_copies_.find(key);
  if (it != adorned_copies_.end()) {
    if (Box* existing = ctx->graph->GetBox(it->second)) return existing;
    adorned_copies_.erase(it);
  }
  SM_ASSIGN_OR_RETURN(Box* origin, LiveOrigin(ctx->graph, origin_id));
  Box* copy = ctx->graph->CopyBoxShallow(origin);
  copy->set_adornment(adorn.adornment);
  copy->mutable_condition_ops() = adorn.condition_ops;
  copy->set_emst_done(false);
  copy->set_magic_box(nullptr);
  adorned_copies_[key] = copy->id();
  origins_[copy->id()] = origin_id;
  return copy;
}

Result<Box*> EmstRule::LiveOrigin(QueryGraph* g, int origin_id) {
  if (Box* live = g->GetBox(origin_id)) return live;
  if (auto it = stand_ins_.find(origin_id); it != stand_ins_.end()) {
    if (Box* live = g->GetBox(it->second)) return live;
  }
  // Collected once every user moved to adorned copies: rebuild it, and
  // whatever of its subtree is gone too, from the graph phase 2 started
  // with. Registered before recursing, so a recursive cycle closes on it.
  const Box* pristine =
      pristine_ == nullptr ? nullptr : pristine_->GetBox(origin_id);
  if (pristine == nullptr) {
    return Status::Internal(
        StrCat("EMST: unadorned origin B", origin_id, " no longer exists"));
  }
  Box* stand_in = g->CopyBoxShallow(pristine);
  stand_ins_[origin_id] = stand_in->id();
  origins_[stand_in->id()] = origin_id;
  for (const auto& q : stand_in->quantifiers()) {
    if (q->input == nullptr) continue;
    SM_ASSIGN_OR_RETURN(q->input, LiveOrigin(g, q->input->id()));
  }
  return stand_in;
}

// ---------------------------------------------------------------------------
// Magic attachment (step 4c of Algorithm 4.2)
// ---------------------------------------------------------------------------

namespace {

// Wraps `old_magic` and `contribution` into a union magic box (recursive
// magic): all existing users of `old_magic` are retargeted to the union.
// Both must carry the bindings of one adornment, so their arities agree.
Result<Box*> ExtendMagicUnion(QueryGraph* g, Box* old_magic,
                              Box* contribution) {
  if (old_magic->NumOutputs() != contribution->NumOutputs()) {
    return Status::Internal(
        StrCat("magic union ", old_magic->DebugId(), " has ",
               old_magic->NumOutputs(), " columns but contribution ",
               contribution->DebugId(), " has ", contribution->NumOutputs()));
  }
  if (old_magic->kind() == BoxKind::kSetOp &&
      old_magic->role() == BoxRole::kMagic) {
    g->NewQuantifier(old_magic, QuantifierType::kForEach, contribution, "mb");
    return old_magic;
  }
  Box* mu = g->NewBox(BoxKind::kSetOp, StrCat(old_magic->label(), "_U"));
  mu->set_set_op(SetOpKind::kUnion);
  mu->set_op_name(kOpUnion);
  mu->set_role(BoxRole::kMagic);
  mu->set_enforce_distinct(true);
  mu->set_emst_done(true);
  for (const OutputColumn& out : old_magic->outputs()) {
    mu->AddOutput(out.name, nullptr);
  }
  // Retarget users of old_magic (magic quantifiers, SELECT-FROM-magic
  // boxes, linked NMQ boxes) before inserting the union's own branches.
  for (Quantifier* user : g->UsesOf(old_magic)) user->input = mu;
  for (Box* b : g->boxes()) {
    if (b->magic_box() == old_magic) b->set_magic_box(mu);
  }
  g->NewQuantifier(mu, QuantifierType::kForEach, old_magic, "m0");
  g->NewQuantifier(mu, QuantifierType::kForEach, contribution, "m1");
  return mu;
}

// Finds the magic quantifier of an AMQ box (if any).
Quantifier* FindMagicQuantifier(Box* box) {
  for (const auto& q : box->quantifiers()) {
    if (q->is_magic && q->input != nullptr &&
        (q->input->role() == BoxRole::kMagic)) {
      return q.get();
    }
  }
  return nullptr;
}

}  // namespace

Status EmstRule::AttachMagic(RewriteContext* ctx, Box* copy, Box* m,
                             const AdornResult& adorn) {
  QueryGraph* g = ctx->graph;
  std::vector<int> restricted = adorn::RestrictedColumns(adorn.adornment);
  if (static_cast<int>(restricted.size()) != m->NumOutputs()) {
    return Status::Internal(
        StrCat("magic box ", m->DebugId(), " arity mismatch with adornment ",
               adorn.adornment));
  }

  bool any_bound = adorn.adornment.find('b') != std::string::npos;
  if (IsAmqBox(*copy)) {
    Quantifier* existing = FindMagicQuantifier(copy);
    if (existing != nullptr) {
      // Second contribution (shared adorned copy / recursion): extend the
      // existing magic source into a union.
      return ExtendMagicUnion(g, existing->input, m).status();
    }
    // A magic quantifier joins the copy only when equality ('b') bindings
    // exist: each row then matches at most one (DISTINCT) magic tuple, so
    // duplicates are preserved. A pure-'c' adornment must not join the
    // magic table — it is consumed through aggregate bounds only.
    Quantifier* mq = nullptr;
    if (any_bound) {
      mq = g->NewQuantifier(copy, QuantifierType::kForEach, m, "m");
      mq->is_magic = true;
    }
    for (size_t i = 0; i < restricted.size(); ++i) {
      int col = restricted[i];
      const OutputColumn& out = copy->outputs()[static_cast<size_t>(col)];
      if (out.expr == nullptr) {
        return Status::Internal(
            StrCat("AMQ copy ", copy->DebugId(), " output ", col,
                   " has no expression for magic join"));
      }
      char kind = adorn.adornment[static_cast<size_t>(col)];
      if (kind == 'b') {
        copy->AddPredicateIfNew(Expr::MakeBinary(
            BinaryOp::kEq, out.expr->Clone(),
            Expr::MakeColumnRef(mq->id, static_cast<int>(i))));
      } else {  // 'c': ground the condition as an aggregate bound over m.
        auto op_it = adorn.condition_ops.find(col);
        if (op_it == adorn.condition_ops.end()) {
          return Status::Internal("condition column without an operator");
        }
        BinaryOp op = op_it->second;
        // bsel: SELECT col_i FROM m   (condition-magic)
        Box* bsel = g->NewBox(BoxKind::kSelect,
                              StrCat("CM_", copy->label(), "_", col));
        bsel->set_role(BoxRole::kConditionMagic);
        bsel->set_emst_done(true);
        Quantifier* bq =
            g->NewQuantifier(bsel, QuantifierType::kForEach, m, "m");
        bsel->AddOutput(m->outputs()[i].name,
                        Expr::MakeColumnRef(bq->id, static_cast<int>(i)));
        // bagg: SELECT MAX(c0) (or MIN) FROM bsel — the ground bound.
        bool upper = (op == BinaryOp::kLt || op == BinaryOp::kLtEq);
        Box* bagg = g->NewBox(BoxKind::kGroupBy,
                              StrCat("CMB_", copy->label(), "_", col));
        bagg->set_role(BoxRole::kConditionMagic);
        bagg->set_emst_done(true);
        Quantifier* aq =
            g->NewQuantifier(bagg, QuantifierType::kForEach, bsel, "s");
        bagg->set_num_group_keys(0);
        bagg->AddOutput("bound",
                        Expr::MakeAggregate(
                            upper ? AggFunc::kMax : AggFunc::kMin, false,
                            Expr::MakeColumnRef(aq->id, 0)));
        Quantifier* sq =
            g->NewQuantifier(copy, QuantifierType::kScalar, bagg, "bound");
        copy->AddPredicateIfNew(Expr::MakeBinary(
            op, out.expr->Clone(), Expr::MakeColumnRef(sq->id, 0)));
      }
    }
    // The magic quantifier leads the join order.
    if (mq != nullptr) {
      std::vector<int> order;
      order.push_back(mq->id);
      for (Quantifier* q : OrderedForEachQuantifiers(copy)) {
        if (q->id != mq->id) order.push_back(q->id);
      }
      copy->set_join_order(std::move(order));
    }
    return Status::OK();
  }

  // NMQ: link the magic box; the copy passes the restriction down when it
  // is itself processed (§4.4 step 4c).
  if (copy->magic_box() == nullptr) {
    copy->set_magic_box(m);
  } else {
    SM_ASSIGN_OR_RETURN(Box* extended,
                        ExtendMagicUnion(g, copy->magic_box(), m));
    copy->set_magic_box(extended);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Algorithm 4.2: magic-process for AMQ boxes
// ---------------------------------------------------------------------------

namespace {

// Collects every (quantifier, column) pair referenced anywhere in the
// graph for quantifiers in `qids`, excluding expressions inside `exclude`.
std::vector<std::pair<int, int>> CollectReferencedColumns(
    const QueryGraph& g, const std::set<int>& qids, const Box* exclude) {
  std::set<std::pair<int, int>> pairs;
  for (Box* b : g.boxes()) {
    if (b == exclude) continue;
    auto scan = [&](const Expr& e) {
      e.Visit([&](const Expr& node) {
        if (node.kind == ExprKind::kColumnRef && qids.count(node.quantifier_id)) {
          pairs.emplace(node.quantifier_id, node.column_index);
        }
      });
    };
    for (const ExprPtr& p : b->predicates()) scan(*p);
    for (const OutputColumn& out : b->outputs()) {
      if (out.expr != nullptr) scan(*out.expr);
    }
  }
  return {pairs.begin(), pairs.end()};
}

}  // namespace

Result<bool> EmstRule::ProcessAmqBox(RewriteContext* ctx, Box* box) {
  QueryGraph* g = ctx->graph;
  bool changed = false;

  // Magic quantifiers (inserted when this box was created as an adorned
  // copy) are information sources for every position.
  std::set<int> eligible;
  for (const auto& q : box->quantifiers()) {
    if (q->is_magic) eligible.insert(q->id);
  }

  std::vector<Quantifier*> order = OrderedForEachQuantifiers(box);
  for (Quantifier* q : order) {
    if (q->is_magic) continue;
    Box* target = q->input;
    bool transformable =
        !target->IsMagicRole() &&
        (target->kind() != BoxKind::kBaseTable || options_.magic_on_base_tables);
    if (transformable) {
      AdornResult adorn = AdornQuantifier(*box, *q, eligible);
      if (!adorn::IsAllFree(adorn.adornment)) {
        // Step 4a: supplementary-magic-box for the eligible prefix, when
        // desirable (≥2 eligible quantifiers, or one plus predicates).
        if (options_.use_supplementary) {
          std::vector<ExprPtr>& preds = box->mutable_predicates();
          int movable_preds = 0;
          for (const ExprPtr& p : preds) {
            std::set<int> refs = p->ReferencedQuantifiers();
            if (refs.empty()) continue;
            bool inside = true;
            for (int rid : refs) {
              if (!eligible.count(rid)) {
                inside = false;
                break;
              }
            }
            if (inside) ++movable_preds;
          }
          bool single_supplementary =
              eligible.size() == 1 &&
              [&] {
                Quantifier* only = box->FindQuantifier(*eligible.begin());
                return only != nullptr && only->input != nullptr &&
                       only->input->role() == BoxRole::kSupplementaryMagic;
              }();
          bool desirable =
              !eligible.empty() && !single_supplementary &&
              (eligible.size() >= 2 || movable_preds > 0);
          if (desirable) {
            // Build SM: move eligible quantifiers + their local predicates.
            Box* sm = g->NewBox(BoxKind::kSelect, StrCat("sm_", box->label()));
            sm->set_role(BoxRole::kSupplementaryMagic);
            sm->set_emst_done(true);
            std::vector<int> moved(eligible.begin(), eligible.end());
            for (int qid : moved) {
              SM_RETURN_IF_ERROR(g->MoveQuantifier(qid, box, sm));
            }
            for (size_t i = 0; i < preds.size();) {
              std::set<int> refs = preds[i]->ReferencedQuantifiers();
              bool inside = !refs.empty();
              for (int rid : refs) {
                if (!eligible.count(rid)) {
                  inside = false;
                  break;
                }
              }
              if (inside) {
                sm->AddPredicate(std::move(preds[i]));
                preds.erase(preds.begin() + static_cast<long>(i));
              } else {
                ++i;
              }
            }
            // SM outputs: every column of the moved quantifiers that the
            // rest of the graph still references.
            auto referenced = CollectReferencedColumns(*g, eligible, sm);
            std::map<std::pair<int, int>, int> out_index;
            for (const auto& [qid, col] : referenced) {
              Quantifier* src = sm->FindQuantifier(qid);
              std::string name =
                  src != nullptr && col < src->input->NumOutputs()
                      ? src->input->outputs()[static_cast<size_t>(col)].name
                      : StrCat("c", col);
              out_index[{qid, col}] = sm->NumOutputs();
              AddUniqueOutput(sm, name, Expr::MakeColumnRef(qid, col));
            }
            Quantifier* smq =
                g->NewQuantifier(box, QuantifierType::kForEach, sm, "sm");
            smq->is_magic = true;
            for (Box* b : g->boxes()) {
              if (b == sm) continue;
              auto remap = [&](int qid, int col) {
                auto it = out_index.find({qid, col});
                if (it == out_index.end()) return std::make_pair(qid, col);
                return std::make_pair(smq->id, it->second);
              };
              for (ExprPtr& p : b->mutable_predicates()) p->RemapColumns(remap);
              for (OutputColumn& out : b->mutable_outputs()) {
                if (out.expr != nullptr) out.expr->RemapColumns(remap);
              }
            }
            // New join order: SM first, then the remaining quantifiers.
            std::vector<int> new_order;
            new_order.push_back(smq->id);
            for (Quantifier* rest : OrderedForEachQuantifiers(box)) {
              if (rest->id != smq->id) new_order.push_back(rest->id);
            }
            box->set_join_order(std::move(new_order));
            eligible = {smq->id};
            changed = true;
            // Bindings referenced moved quantifiers; recompute.
            adorn = AdornQuantifier(*box, *q, eligible);
          }
        }

        if (!adorn::IsAllFree(adorn.adornment)) {
          // Step 3: retarget q onto the adorned copy.
          SM_ASSIGN_OR_RETURN(Box* copy,
                              GetOrCreateAdornedCopy(ctx, target, adorn));
          q->input = copy;

          // Step 4b: the magic box computing the bindings.
          Box* m = g->NewBox(BoxKind::kSelect, StrCat("m_", copy->label()));
          m->set_role(BoxRole::kMagic);
          m->set_emst_done(true);
          m->set_enforce_distinct(true);
          std::map<int, int> eqid_to_mqid;
          for (Quantifier* eq : OrderedForEachQuantifiers(box)) {
            if (!eligible.count(eq->id)) continue;
            Quantifier* mq2 =
                g->NewQuantifier(m, QuantifierType::kForEach, eq->input,
                                 eq->name);
            eqid_to_mqid[eq->id] = mq2->id;
          }
          auto remap_into_m = [&eqid_to_mqid](int qid, int col) {
            auto it = eqid_to_mqid.find(qid);
            return it == eqid_to_mqid.end() ? std::make_pair(qid, col)
                                            : std::make_pair(it->second, col);
          };
          // Clone the predicates that relate only eligible quantifiers.
          for (const ExprPtr& p : box->predicates()) {
            std::set<int> refs = p->ReferencedQuantifiers();
            if (refs.empty()) continue;
            bool inside = true;
            for (int rid : refs) {
              if (!eligible.count(rid)) {
                inside = false;
                break;
              }
            }
            if (!inside) continue;
            ExprPtr clone = p->Clone();
            clone->RemapColumns(remap_into_m);
            m->AddPredicate(std::move(clone));
          }
          for (const Binding& b : adorn.bindings) {
            ExprPtr e = b.expr->Clone();
            e->RemapColumns(remap_into_m);
            AddUniqueOutput(
                m, copy->outputs()[static_cast<size_t>(b.column)].name,
                std::move(e));
          }
          SM_RETURN_IF_ERROR(AttachMagic(ctx, copy, m, adorn));
          changed = true;
        }
      }
    }
    eligible.insert(q->id);
  }
  return changed;
}

// ---------------------------------------------------------------------------
// magic-process for NMQ boxes: pass the linked magic down to the children
// ---------------------------------------------------------------------------

Result<bool> EmstRule::ProcessNmqBox(RewriteContext* ctx, Box* box) {
  QueryGraph* g = ctx->graph;
  Box* m = box->magic_box();
  if (m == nullptr) return false;
  const std::string& a = box->adornment();
  std::vector<int> restricted = adorn::RestrictedColumns(a);
  if (restricted.empty()) return false;
  bool changed = false;

  int input_idx = -1;
  for (const auto& q : box->quantifiers()) {
    ++input_idx;
    if (q->type != QuantifierType::kForEach) continue;
    Box* child = q->input;
    if (child->IsMagicRole() || child->kind() == BoxKind::kBaseTable) continue;

    // Map each restricted parent column to a child column.
    struct Mapped {
      int parent_col;
      int child_col;
      int m_col;  ///< column in the parent magic box
    };
    std::vector<Mapped> mapped;
    for (size_t i = 0; i < restricted.size(); ++i) {
      int col = restricted[i];
      int child_col = -1;
      switch (box->kind()) {
        case BoxKind::kGroupBy: {
          if (col >= box->num_group_keys()) break;
          const Expr* key = box->outputs()[static_cast<size_t>(col)].expr.get();
          if (key != nullptr && key->kind == ExprKind::kColumnRef) {
            child_col = key->column_index;
          }
          break;
        }
        case BoxKind::kSetOp:
          child_col = col;
          break;
        case BoxKind::kCustom: {
          const OperationTraits* traits = box->traits();
          if (traits != nullptr && traits->map_output_column != nullptr) {
            child_col = traits->map_output_column(*box, col, input_idx);
          }
          break;
        }
        default:
          break;
      }
      if (child_col >= 0 && ColumnUsable(*child, child_col)) {
        mapped.push_back(Mapped{col, child_col, static_cast<int>(i)});
      }
    }
    if (mapped.empty()) continue;

    AdornResult child_adorn;
    std::vector<BindKind> kinds(static_cast<size_t>(child->NumOutputs()),
                                BindKind::kFree);
    for (const Mapped& mp : mapped) {
      char kind = a[static_cast<size_t>(mp.parent_col)];
      kinds[static_cast<size_t>(mp.child_col)] =
          kind == 'b' ? BindKind::kBound : BindKind::kCondition;
      if (kind == 'c') {
        auto it = box->condition_ops().find(mp.parent_col);
        child_adorn.condition_ops[mp.child_col] =
            it != box->condition_ops().end() ? it->second : BinaryOp::kLtEq;
      }
    }
    child_adorn.adornment = adorn::FromKinds(kinds);

    // Child magic box: a projection of the parent's magic table (SD4).
    Box* mc = g->NewBox(BoxKind::kSelect, StrCat("m_", child->label()));
    mc->set_role(BoxRole::kMagic);
    mc->set_emst_done(true);
    mc->set_enforce_distinct(true);
    Quantifier* mq = g->NewQuantifier(mc, QuantifierType::kForEach, m, "m");
    // Outputs must follow the child's restricted-column order.
    std::vector<Mapped> by_child = mapped;
    std::sort(by_child.begin(), by_child.end(),
              [](const Mapped& x, const Mapped& y) {
                return x.child_col < y.child_col;
              });
    for (const Mapped& mp : by_child) {
      AddUniqueOutput(mc,
                      child->outputs()[static_cast<size_t>(mp.child_col)].name,
                      Expr::MakeColumnRef(mq->id, mp.m_col));
    }

    SM_ASSIGN_OR_RETURN(Box* copy,
                        GetOrCreateAdornedCopy(ctx, child, child_adorn));
    q->input = copy;
    SM_RETURN_IF_ERROR(AttachMagic(ctx, copy, mc, child_adorn));
    changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------

Result<bool> EmstRule::Apply(RewriteContext* ctx, Box* box) {
  if (box->emst_done()) return false;
  if (box->IsMagicRole() || box->kind() == BoxKind::kBaseTable) {
    box->set_emst_done(true);
    return false;
  }
  Result<bool> changed =
      IsAmqBox(*box) ? ProcessAmqBox(ctx, box) : ProcessNmqBox(ctx, box);
  if (!changed.ok()) return changed.status();
  box->set_emst_done(true);
  return *changed;
}

}  // namespace starmagic
