#include "qgm/graph.h"

#include <gtest/gtest.h>

namespace starmagic {
namespace {

// Builds: QUERY(select) -> {T(base), V(select) -> T}.
struct SmallGraph {
  QueryGraph g;
  Box* base;
  Box* view;
  Box* query;
  Quantifier* qv_t;  // view's quantifier over base
  Quantifier* qq_v;  // query's quantifier over view

  SmallGraph() {
    base = g.NewBox(BoxKind::kBaseTable, "T");
    base->set_table_name("t");
    base->AddOutput("a", nullptr);
    base->AddOutput("b", nullptr);
    view = g.NewBox(BoxKind::kSelect, "V");
    qv_t = g.NewQuantifier(view, QuantifierType::kForEach, base, "t");
    view->AddOutput("a", Expr::MakeColumnRef(qv_t->id, 0));
    query = g.NewBox(BoxKind::kSelect, "QUERY");
    qq_v = g.NewQuantifier(query, QuantifierType::kForEach, view, "v");
    query->AddOutput("a", Expr::MakeColumnRef(qq_v->id, 0));
    g.set_top(query);
  }
};

TEST(GraphTest, OwnershipMaps) {
  SmallGraph s;
  EXPECT_EQ(s.g.OwnerOf(s.qv_t->id), s.view);
  EXPECT_EQ(s.g.OwnerOf(s.qq_v->id), s.query);
  EXPECT_EQ(s.g.GetQuantifier(s.qv_t->id), s.qv_t);
  EXPECT_EQ(s.g.GetBox(s.base->id()), s.base);
}

TEST(GraphTest, UsesOf) {
  SmallGraph s;
  auto uses = s.g.UsesOf(s.view);
  ASSERT_EQ(uses.size(), 1u);
  EXPECT_EQ(uses[0], s.qq_v);
  EXPECT_EQ(s.g.UsesOf(s.base).size(), 1u);
}

TEST(GraphTest, ValidatePassesOnWellFormedGraph) {
  SmallGraph s;
  EXPECT_TRUE(s.g.Validate().ok());
}

TEST(GraphTest, ValidateCatchesDanglingReference) {
  SmallGraph s;
  s.query->AddPredicate(Expr::MakeBinary(BinaryOp::kEq,
                                         Expr::MakeColumnRef(999, 0),
                                         Expr::MakeLiteral(Value::Int(1))));
  EXPECT_FALSE(s.g.Validate().ok());
}

TEST(GraphTest, ValidateMessagesNameTheFault) {
  {
    SmallGraph s;
    s.query->AddPredicate(Expr::MakeBinary(BinaryOp::kEq,
                                           Expr::MakeColumnRef(999, 0),
                                           Expr::MakeLiteral(Value::Int(1))));
    EXPECT_EQ(s.g.Validate().ToString(),
              "Internal: predicate in B3:SELECT(QUERY) references unknown "
              "q999: q999.c0 = 1");
  }
  {
    SmallGraph s;
    s.view->AddOutput("z", Expr::MakeColumnRef(-4, 0));
    EXPECT_EQ(s.g.Validate().ToString(),
              "Internal: output in B2:SELECT(V) references unknown q-4: "
              "q-4.c0");
  }
  {
    SmallGraph s;
    s.qq_v->id = s.qv_t->id;
    EXPECT_EQ(s.g.Validate().ToString(),
              "Internal: duplicate quantifier id q1");
  }
  {
    SmallGraph s;
    s.qq_v->input = nullptr;
    EXPECT_EQ(s.g.Validate().ToString(),
              "Internal: q2 in B3:SELECT(QUERY) has null input");
  }
  {
    SmallGraph s;
    Box dead(99, BoxKind::kSelect, "DEAD");
    s.qq_v->input = &dead;
    EXPECT_EQ(s.g.Validate().ToString(),
              "Internal: q2 references dead box");
  }
}

TEST(GraphTest, GarbageCollectRemovesUnreachable) {
  SmallGraph s;
  Box* orphan = s.g.NewBox(BoxKind::kSelect, "ORPHAN");
  orphan->AddOutput("x", Expr::MakeLiteral(Value::Int(1)));
  const int orphan_id = orphan->id();  // GC frees the box itself
  EXPECT_EQ(s.g.NumBoxes(), 4);
  EXPECT_EQ(s.g.GarbageCollect(), 1);
  EXPECT_EQ(s.g.NumBoxes(), 3);
  EXPECT_EQ(s.g.GetBox(orphan_id), nullptr);
}

TEST(GraphTest, GarbageCollectFollowsMagicLinks) {
  SmallGraph s;
  Box* magic = s.g.NewBox(BoxKind::kSelect, "m_V");
  magic->set_role(BoxRole::kMagic);
  magic->AddOutput("a", Expr::MakeLiteral(Value::Int(1)));
  s.view->set_magic_box(magic);
  EXPECT_EQ(s.g.GarbageCollect(), 0);  // kept alive through the link
  s.view->set_magic_box(nullptr);
  EXPECT_EQ(s.g.GarbageCollect(), 1);
}

TEST(GraphTest, MoveQuantifierUpdatesOwnership) {
  SmallGraph s;
  Box* sm = s.g.NewBox(BoxKind::kSelect, "SM");
  ASSERT_TRUE(s.g.MoveQuantifier(s.qq_v->id, s.query, sm).ok());
  EXPECT_EQ(s.g.OwnerOf(s.qq_v->id), sm);
  EXPECT_TRUE(s.query->quantifiers().empty());
  EXPECT_EQ(sm->quantifiers().size(), 1u);
}

TEST(GraphTest, RemoveQuantifierRefusesWhileReferenced) {
  SmallGraph s;
  // query's output references qq_v.
  EXPECT_FALSE(s.g.RemoveQuantifier(s.qq_v->id).ok());
  s.query->mutable_outputs().clear();
  s.query->AddOutput("one", Expr::MakeLiteral(Value::Int(1)));
  EXPECT_TRUE(s.g.RemoveQuantifier(s.qq_v->id).ok());
}

TEST(GraphTest, CopyBoxShallowRemapsInternalRefs) {
  SmallGraph s;
  s.view->AddPredicate(Expr::MakeBinary(BinaryOp::kGt,
                                        Expr::MakeColumnRef(s.qv_t->id, 1),
                                        Expr::MakeLiteral(Value::Int(0))));
  Box* copy = s.g.CopyBoxShallow(s.view);
  ASSERT_EQ(copy->quantifiers().size(), 1u);
  int new_qid = copy->quantifiers()[0]->id;
  EXPECT_NE(new_qid, s.qv_t->id);
  EXPECT_EQ(copy->quantifiers()[0]->input, s.base);  // shallow: same child
  EXPECT_TRUE(copy->predicates()[0]->References(new_qid));
  EXPECT_FALSE(copy->predicates()[0]->References(s.qv_t->id));
  EXPECT_TRUE(copy->outputs()[0].expr->References(new_qid));
}

TEST(GraphTest, CopyBoxShallowPreservesCorrelationRefs) {
  SmallGraph s;
  // Predicate in the view referencing the query's quantifier (correlation).
  s.view->AddPredicate(Expr::MakeBinary(BinaryOp::kEq,
                                        Expr::MakeColumnRef(s.qv_t->id, 0),
                                        Expr::MakeColumnRef(s.qq_v->id, 0)));
  Box* copy = s.g.CopyBoxShallow(s.view);
  EXPECT_TRUE(copy->predicates()[0]->References(s.qq_v->id));
}

TEST(GraphTest, CloneProducesIsomorphicIndependentGraph) {
  SmallGraph s;
  s.view->set_adornment("bf");
  std::unique_ptr<QueryGraph> clone = s.g.Clone();
  EXPECT_TRUE(clone->Validate().ok());
  EXPECT_EQ(clone->NumBoxes(), s.g.NumBoxes());
  EXPECT_EQ(clone->NumQuantifiers(), s.g.NumQuantifiers());
  Box* cloned_view = clone->GetBox(s.view->id());
  ASSERT_NE(cloned_view, nullptr);
  EXPECT_NE(cloned_view, s.view);
  EXPECT_EQ(cloned_view->adornment(), "bf");
  // Mutating the clone leaves the original untouched.
  cloned_view->set_label("MUTATED");
  EXPECT_EQ(s.view->label(), "V");
}

TEST(GraphTest, StrataForNonRecursiveGraph) {
  SmallGraph s;
  auto info = s.g.ComputeStrata();
  EXPECT_TRUE(info.recursive_boxes.empty());
  EXPECT_EQ(info.stratum[s.base->id()], 0);
  EXPECT_EQ(info.stratum[s.view->id()], 1);
  EXPECT_EQ(info.stratum[s.query->id()], 2);
}

TEST(GraphTest, StrataDetectsRecursiveScc) {
  QueryGraph g;
  Box* base = g.NewBox(BoxKind::kBaseTable, "E");
  base->set_table_name("e");
  base->AddOutput("x", nullptr);
  Box* u = g.NewBox(BoxKind::kSetOp, "U");
  u->set_enforce_distinct(true);
  Box* b0 = g.NewBox(BoxKind::kSelect, "B0");
  Quantifier* q0 = g.NewQuantifier(b0, QuantifierType::kForEach, base, "e");
  b0->AddOutput("x", Expr::MakeColumnRef(q0->id, 0));
  Box* b1 = g.NewBox(BoxKind::kSelect, "B1");
  Quantifier* q1 = g.NewQuantifier(b1, QuantifierType::kForEach, u, "u");
  b1->AddOutput("x", Expr::MakeColumnRef(q1->id, 0));
  g.NewQuantifier(u, QuantifierType::kForEach, b0, "l");
  g.NewQuantifier(u, QuantifierType::kForEach, b1, "r");
  u->AddOutput("x", nullptr);
  Box* top = g.NewBox(BoxKind::kSelect, "Q");
  Quantifier* qt = g.NewQuantifier(top, QuantifierType::kForEach, u, "u");
  top->AddOutput("x", Expr::MakeColumnRef(qt->id, 0));
  g.set_top(top);
  ASSERT_TRUE(g.Validate().ok());

  auto info = g.ComputeStrata();
  EXPECT_TRUE(info.recursive_boxes.count(u->id()));
  EXPECT_TRUE(info.recursive_boxes.count(b1->id()));
  EXPECT_FALSE(info.recursive_boxes.count(b0->id()));
  EXPECT_FALSE(info.recursive_boxes.count(top->id()));
  EXPECT_EQ(info.scc_id[u->id()], info.scc_id[b1->id()]);
  EXPECT_GT(info.stratum[top->id()], info.stratum[u->id()]);
}

}  // namespace
}  // namespace starmagic
