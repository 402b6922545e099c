#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "qgm/builder.h"
#include "qgm/printer.h"
#include "rewrite/constant_folding.h"
#include "rewrite/correlate_rule.h"
#include "rewrite/distinct_pullup.h"
#include "rewrite/engine.h"
#include "rewrite/merge_rule.h"
#include "rewrite/projection_pruning.h"
#include "rewrite/pushdown.h"
#include "rewrite/redundant_join.h"
#include "sql/parser.h"

namespace starmagic {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("emp", Schema({{"empno", ColumnType::kInt},
                                                {"dept", ColumnType::kInt},
                                                {"sal", ColumnType::kDouble}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("dept", Schema({{"deptno", ColumnType::kInt},
                                                 {"dname", ColumnType::kString}}))
                    .ok());
    catalog_.GetTable("emp")->SetPrimaryKey({0});
    catalog_.GetTable("dept")->SetPrimaryKey({0});
  }

  std::unique_ptr<QueryGraph> Build(const std::string& sql) {
    auto blob = ParseQuery(sql);
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    QgmBuilder builder(&catalog_);
    auto g = builder.Build(**blob);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return std::move(*g);
  }

  // Runs a single rule to fixpoint.
  int RunRule(QueryGraph* g, std::unique_ptr<RewriteRule> rule) {
    RewriteEngine engine;
    engine.AddRule(std::move(rule));
    RewriteContext ctx;
    ctx.graph = g;
    ctx.catalog = &catalog_;
    auto r = engine.Run(&ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->total_applications : -1;
  }

  Catalog catalog_;
};

TEST_F(RewriteTest, MergeFlattensNestedSelect) {
  auto g = Build(
      "SELECT x.empno FROM (SELECT empno, sal FROM emp WHERE sal > 5) x "
      "WHERE x.empno < 100");
  int before = g->NumBoxes();
  int fired = RunRule(g.get(), std::make_unique<MergeRule>());
  EXPECT_GE(fired, 1);
  EXPECT_LT(g->NumBoxes(), before);
  // Both predicates now live in the top box.
  EXPECT_EQ(g->top()->predicates().size(), 2u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(RewriteTest, MergeSkipsDistinctChild) {
  auto g = Build(
      "SELECT x.dept FROM (SELECT DISTINCT dept FROM emp) x");
  int before = g->NumBoxes();
  RunRule(g.get(), std::make_unique<MergeRule>());
  EXPECT_EQ(g->NumBoxes(), before);  // DISTINCT child must survive
}

TEST_F(RewriteTest, MergeSkipsSharedChild) {
  ViewDefinition v;
  v.name = "lowpaid";
  v.body_sql = "SELECT empno, dept FROM emp WHERE sal < 10";
  ASSERT_TRUE(catalog_.CreateView(std::move(v)).ok());
  auto g = Build(
      "SELECT a.empno FROM lowpaid a, lowpaid b WHERE a.empno = b.empno");
  // The view box is shared by two quantifiers; merge must leave it alone.
  Box* view_box = nullptr;
  for (Box* b : g->boxes()) {
    if (b->label() == "LOWPAID") view_box = b;
  }
  ASSERT_NE(view_box, nullptr);
  RunRule(g.get(), std::make_unique<MergeRule>());
  EXPECT_NE(g->GetBox(view_box->id()), nullptr);
}

TEST_F(RewriteTest, LocalPushdownMovesPredicateIntoView) {
  auto g = Build(
      "SELECT x.dept, x.avgsal FROM "
      "(SELECT dept, AVG(sal) AS avgsal FROM emp GROUP BY dept) x "
      "WHERE x.dept = 7");
  RunRule(g.get(), std::make_unique<LocalPredicatePushdownRule>());
  // The predicate moved through the groupby into the T1 select box.
  EXPECT_TRUE(g->top()->predicates().empty());
  bool found = false;
  for (Box* b : g->boxes()) {
    if (b->kind() != BoxKind::kSelect) continue;
    for (const ExprPtr& p : b->predicates()) {
      if (p->ToString().find("= 7") != std::string::npos &&
          b != g->top()) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << PrintGraph(*g);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(RewriteTest, PushdownRefusesAggregateColumn) {
  auto g = Build(
      "SELECT x.dept FROM "
      "(SELECT dept, AVG(sal) AS avgsal FROM emp GROUP BY dept) x "
      "WHERE x.avgsal > 100");
  RunRule(g.get(), std::make_unique<LocalPredicatePushdownRule>());
  // A predicate on an aggregate output cannot move below the groupby, but
  // it can move from the top box into the triplet's T3 select box.
  Box* groupby = nullptr;
  for (Box* b : g->boxes()) {
    if (b->kind() == BoxKind::kGroupBy) groupby = b;
  }
  ASSERT_NE(groupby, nullptr);
  Box* t1 = groupby->quantifiers()[0]->input;
  EXPECT_TRUE(t1->predicates().empty()) << PrintGraph(*g);
}

TEST_F(RewriteTest, PushdownIntoUnionBranches) {
  auto g = Build(
      "SELECT x.empno FROM "
      "(SELECT empno, dept FROM emp UNION ALL "
      " SELECT deptno, deptno FROM dept) x "
      "WHERE x.empno = 3");
  RunRule(g.get(), std::make_unique<LocalPredicatePushdownRule>());
  EXPECT_TRUE(g->top()->predicates().empty());
  int branches_with_pred = 0;
  for (Box* b : g->boxes()) {
    if (b->kind() == BoxKind::kSelect && b != g->top() &&
        !b->predicates().empty()) {
      ++branches_with_pred;
    }
  }
  EXPECT_EQ(branches_with_pred, 2) << PrintGraph(*g);
}

TEST_F(RewriteTest, PushdownLeavesBaseTablePredicatesAlone) {
  // Base tables accept no pushed predicate, so the rule must report no
  // change and leave the box exactly as it was (it returns before building
  // a template clone of each predicate).
  auto g = Build(
      "SELECT e.empno FROM emp e WHERE e.sal > 5 AND e.dept IN (1, 2, 3)");
  std::string before = PrintGraph(*g);
  RewriteContext ctx;
  ctx.graph = g.get();
  ctx.catalog = &catalog_;
  LocalPredicatePushdownRule rule;
  auto applied = rule.Apply(&ctx, g->top());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_FALSE(*applied);
  EXPECT_EQ(PrintGraph(*g), before);

  // The same predicate over a view box is still pushed into the view.
  ViewDefinition v;
  v.name = "richemp";
  v.body_sql = "SELECT empno, dept FROM emp WHERE sal > 100";
  ASSERT_TRUE(catalog_.CreateView(std::move(v)).ok());
  auto gv = Build("SELECT r.empno FROM richemp r WHERE r.dept IN (1, 2, 3)");
  ctx.graph = gv.get();
  applied = rule.Apply(&ctx, gv->top());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(*applied);
  EXPECT_TRUE(gv->top()->predicates().empty()) << PrintGraph(*gv);
  Box* view_box = gv->top()->quantifiers()[0]->input;
  EXPECT_EQ(view_box->predicates().size(), 2u) << PrintGraph(*gv);
  EXPECT_TRUE(gv->Validate().ok());
}

TEST_F(RewriteTest, DistinctPullupInfersKeysAndDropsRedundantDistinct) {
  auto g = Build("SELECT DISTINCT empno, dept FROM emp");
  ASSERT_TRUE(g->top()->enforce_distinct());
  RunRule(g.get(), std::make_unique<DistinctPullupRule>());
  // empno is the primary key: the projection is duplicate-free already.
  EXPECT_FALSE(g->top()->enforce_distinct());
  EXPECT_TRUE(g->top()->duplicate_free());
}

TEST_F(RewriteTest, DistinctPullupKeepsNecessaryDistinct) {
  auto g = Build("SELECT DISTINCT dept FROM emp");
  RunRule(g.get(), std::make_unique<DistinctPullupRule>());
  EXPECT_TRUE(g->top()->enforce_distinct());  // dept is not a key
  EXPECT_TRUE(g->top()->duplicate_free());    // but the result is dedup'ed
}

TEST_F(RewriteTest, DistinctPullupMarksGroupByDupFree) {
  auto g = Build("SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  RunRule(g.get(), std::make_unique<DistinctPullupRule>());
  for (Box* b : g->boxes()) {
    if (b->kind() == BoxKind::kGroupBy) {
      EXPECT_TRUE(b->duplicate_free());
      ASSERT_TRUE(b->has_unique_key());
      EXPECT_EQ(b->unique_key(), std::vector<int>{0});
    }
  }
}

TEST_F(RewriteTest, RedundantSelfJoinEliminated) {
  auto g = Build(
      "SELECT a.sal FROM emp a, emp b "
      "WHERE a.empno = b.empno AND b.sal > 10");
  // Needs key knowledge first.
  RunRule(g.get(), std::make_unique<DistinctPullupRule>());
  int fired = RunRule(g.get(), std::make_unique<RedundantJoinRule>());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(g->top()->quantifiers().size(), 1u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(RewriteTest, RedundantJoinKeepsNonKeyEquality) {
  auto g = Build(
      "SELECT a.sal FROM emp a, emp b WHERE a.dept = b.dept");
  RunRule(g.get(), std::make_unique<DistinctPullupRule>());
  int fired = RunRule(g.get(), std::make_unique<RedundantJoinRule>());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(g->top()->quantifiers().size(), 2u);
}

TEST_F(RewriteTest, ConstantFoldingSimplifies) {
  auto g = Build("SELECT empno FROM emp WHERE 1 + 1 = 2 AND sal > 2 * 3");
  RunRule(g.get(), std::make_unique<ConstantFoldingRule>());
  // "1+1=2" folds to TRUE and is removed; "2*3" folds into a literal.
  ASSERT_EQ(g->top()->predicates().size(), 1u);
  EXPECT_EQ(g->top()->predicates()[0]->ToString(
                [](int, int) { return std::string("sal"); }),
            "sal > 6");
}

TEST_F(RewriteTest, ProjectionPruningDropsUnusedColumns) {
  auto g = Build(
      "SELECT x.empno FROM "
      "(SELECT empno, dept, sal FROM emp WHERE sal > 1) x");
  Box* inner = g->top()->quantifiers()[0]->input;
  ASSERT_EQ(inner->NumOutputs(), 3);
  RunRule(g.get(), std::make_unique<ProjectionPruningRule>());
  // empno (used) is kept; the primary key column is empno too, so pruning
  // keeps it once; dept/sal go away.
  EXPECT_LT(inner->NumOutputs(), 3);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(RewriteTest, CorrelateRulePushesJoinIntoView) {
  ViewDefinition v;
  v.name = "deptavg";
  v.column_names = {"dept", "avgsal"};
  v.body_sql = "SELECT dept, AVG(sal) FROM emp GROUP BY dept";
  ASSERT_TRUE(catalog_.CreateView(std::move(v)).ok());
  auto g = Build(
      "SELECT d.dname, v.avgsal FROM dept d, deptavg v "
      "WHERE d.deptno = v.dept");
  int fired = RunRule(g.get(), std::make_unique<CorrelateRule>());
  EXPECT_GE(fired, 1);
  // The join predicate left the top box and became a correlation inside
  // the view's T1 box.
  EXPECT_TRUE(g->top()->predicates().empty());
  int outer_qid = -1;
  for (const auto& q : g->top()->quantifiers()) {
    if (q->input->kind() == BoxKind::kBaseTable) outer_qid = q->id;
  }
  ASSERT_NE(outer_qid, -1);
  bool correlated = false;
  for (Box* b : g->boxes()) {
    if (b == g->top()) continue;
    for (const ExprPtr& p : b->predicates()) {
      if (p->References(outer_qid)) correlated = true;
    }
  }
  EXPECT_TRUE(correlated) << PrintGraph(*g);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(RewriteTest, EngineRunsToFixpointWithAllRules) {
  auto g = Build(
      "SELECT x.empno FROM "
      "(SELECT empno, dept FROM emp WHERE sal > 1) x, dept d "
      "WHERE x.dept = d.deptno AND d.dname = 'Planning' AND 1 = 1");
  RewriteEngine engine;
  engine.AddRule(std::make_unique<ConstantFoldingRule>());
  engine.AddRule(std::make_unique<DistinctPullupRule>());
  engine.AddRule(std::make_unique<MergeRule>());
  engine.AddRule(std::make_unique<LocalPredicatePushdownRule>());
  engine.AddRule(std::make_unique<RedundantJoinRule>());
  engine.AddRule(std::make_unique<ProjectionPruningRule>());
  RewriteContext ctx;
  ctx.graph = g.get();
  ctx.catalog = &catalog_;
  auto r = engine.Run(&ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->total_applications, 0);
  EXPECT_TRUE(g->Validate().ok());
}

TEST_F(RewriteTest, EngineEnableDisableByName) {
  RewriteEngine engine;
  engine.AddRule(std::make_unique<MergeRule>());
  EXPECT_TRUE(engine.IsEnabled("merge"));
  EXPECT_TRUE(engine.SetEnabled("merge", false));
  EXPECT_FALSE(engine.IsEnabled("merge"));
  EXPECT_FALSE(engine.SetEnabled("no-such-rule", false));
  auto g = Build("SELECT x.empno FROM (SELECT empno FROM emp) x");
  RewriteContext ctx;
  ctx.graph = g.get();
  ctx.catalog = &catalog_;
  auto r = engine.Run(&ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_applications, 0);  // disabled rule never fires
}

}  // namespace
}  // namespace starmagic
