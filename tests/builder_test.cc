#include "qgm/builder.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace starmagic {
namespace {

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("emp", Schema({{"empno", ColumnType::kInt},
                                                {"name", ColumnType::kString},
                                                {"dept", ColumnType::kInt},
                                                {"sal", ColumnType::kDouble}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("dept", Schema({{"deptno", ColumnType::kInt},
                                                 {"dname", ColumnType::kString}}))
                    .ok());
    ViewDefinition v;
    v.name = "avgsal";
    v.column_names = {"dept", "avg_sal"};
    v.body_sql = "SELECT dept, AVG(sal) FROM emp GROUP BY dept";
    ASSERT_TRUE(catalog_.CreateView(std::move(v)).ok());
  }

  Result<std::unique_ptr<QueryGraph>> Build(const std::string& sql) {
    auto blob = ParseQuery(sql);
    if (!blob.ok()) return blob.status();
    QgmBuilder builder(&catalog_);
    return builder.Build(**blob);
  }

  std::unique_ptr<QueryGraph> MustBuild(const std::string& sql) {
    auto r = Build(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : nullptr;
  }

  static Box* FindBox(const QueryGraph& g, BoxKind kind) {
    for (Box* b : g.boxes()) {
      if (b->kind() == kind) return b;
    }
    return nullptr;
  }

  Catalog catalog_;
};

TEST_F(BuilderTest, SimpleSelectShape) {
  auto g = MustBuild("SELECT e.empno, e.sal FROM emp e WHERE e.sal > 100");
  ASSERT_NE(g, nullptr);
  Box* top = g->top();
  EXPECT_EQ(top->kind(), BoxKind::kSelect);
  EXPECT_EQ(top->NumOutputs(), 2);
  EXPECT_EQ(top->quantifiers().size(), 1u);
  EXPECT_EQ(top->predicates().size(), 1u);
  EXPECT_EQ(top->quantifiers()[0]->input->kind(), BoxKind::kBaseTable);
}

TEST_F(BuilderTest, StarExpandsAllColumns) {
  auto g = MustBuild("SELECT * FROM emp, dept");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->top()->NumOutputs(), 6);
  auto g2 = MustBuild("SELECT d.* FROM emp e, dept d");
  ASSERT_NE(g2, nullptr);
  EXPECT_EQ(g2->top()->NumOutputs(), 2);
}

TEST_F(BuilderTest, OutputNamesFromAliasesAndColumns) {
  auto g = MustBuild("SELECT empno AS id, sal, sal * 2 FROM emp");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->top()->outputs()[0].name, "id");
  EXPECT_EQ(g->top()->outputs()[1].name, "sal");
  EXPECT_EQ(g->top()->outputs()[2].name, "col3");
}

TEST_F(BuilderTest, GroupByBuildsTriplet) {
  auto g = MustBuild(
      "SELECT dept, AVG(sal) FROM emp WHERE sal > 0 GROUP BY dept "
      "HAVING COUNT(*) > 1");
  ASSERT_NE(g, nullptr);
  Box* groupby = FindBox(*g, BoxKind::kGroupBy);
  ASSERT_NE(groupby, nullptr);
  EXPECT_EQ(groupby->num_group_keys(), 1);
  // AVG and COUNT(*) -> 2 aggregate outputs.
  EXPECT_EQ(groupby->NumOutputs(), 3);
  // The triplet: T1 (select) -> T2 (groupby) -> T3 (top select with HAVING).
  Box* t3 = g->top();
  EXPECT_EQ(t3->kind(), BoxKind::kSelect);
  EXPECT_EQ(t3->quantifiers()[0]->input, groupby);
  EXPECT_EQ(t3->predicates().size(), 1u);  // HAVING
  Box* t1 = groupby->quantifiers()[0]->input;
  EXPECT_EQ(t1->kind(), BoxKind::kSelect);
  EXPECT_EQ(t1->predicates().size(), 1u);  // WHERE
}

TEST_F(BuilderTest, AggregateDeduplication) {
  auto g = MustBuild(
      "SELECT dept, AVG(sal), AVG(sal) + 1 FROM emp GROUP BY dept");
  ASSERT_NE(g, nullptr);
  Box* groupby = FindBox(*g, BoxKind::kGroupBy);
  ASSERT_NE(groupby, nullptr);
  EXPECT_EQ(groupby->NumOutputs(), 2);  // key + one shared AVG
}

TEST_F(BuilderTest, NonGroupedColumnRejected) {
  auto r = Build("SELECT name, AVG(sal) FROM emp GROUP BY dept");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSemanticError);
}

TEST_F(BuilderTest, ViewExpandsToSharedBox) {
  auto g = MustBuild(
      "SELECT a.avg_sal, b.avg_sal FROM avgsal a, avgsal b "
      "WHERE a.dept = b.dept");
  ASSERT_NE(g, nullptr);
  // Both quantifiers range over the *same* view box (common subexpression).
  Box* top = g->top();
  ASSERT_EQ(top->quantifiers().size(), 2u);
  EXPECT_EQ(top->quantifiers()[0]->input, top->quantifiers()[1]->input);
}

TEST_F(BuilderTest, ViewColumnRenamesApply) {
  auto g = MustBuild("SELECT avg_sal FROM avgsal");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->top()->outputs()[0].name, "avg_sal");
}

TEST_F(BuilderTest, ViewExpandsFromTheStoredAst) {
  // The builder expands the catalog's parsed body and never re-reads
  // body_sql: here the text names another table than the AST does.
  ViewDefinition v;
  v.name = "deptnos";
  v.body_sql = "SELECT empno FROM emp";
  v.body = ParseQuery("SELECT deptno FROM dept").value();
  ASSERT_TRUE(catalog_.CreateView(std::move(v)).ok());
  auto g = MustBuild("SELECT * FROM deptnos");
  ASSERT_NE(g, nullptr);
  bool reads_dept = false;
  bool reads_emp = false;
  for (const Box* b : g->boxes()) {
    reads_dept = reads_dept || b->table_name() == "dept";
    reads_emp = reads_emp || b->table_name() == "emp";
  }
  EXPECT_TRUE(reads_dept);
  EXPECT_FALSE(reads_emp);
  EXPECT_EQ(g->top()->outputs()[0].name, "deptno");
}

TEST_F(BuilderTest, ExistsBecomesExistentialQuantifier) {
  auto g = MustBuild(
      "SELECT d.dname FROM dept d WHERE EXISTS "
      "(SELECT e.empno FROM emp e WHERE e.dept = d.deptno)");
  ASSERT_NE(g, nullptr);
  Box* top = g->top();
  const Quantifier* eq = nullptr;
  for (const auto& q : top->quantifiers()) {
    if (q->type == QuantifierType::kExistential) eq = q.get();
  }
  ASSERT_NE(eq, nullptr);
  EXPECT_FALSE(eq->requires_empty);
  // The correlation predicate lives inside the subquery box and references
  // the outer quantifier.
  const Box* sub = eq->input;
  ASSERT_EQ(sub->predicates().size(), 1u);
  int outer_qid = top->quantifiers()[0]->id;
  EXPECT_TRUE(sub->predicates()[0]->References(outer_qid));
}

TEST_F(BuilderTest, NotExistsBecomesAllWithRequiresEmpty) {
  auto g = MustBuild(
      "SELECT d.dname FROM dept d WHERE NOT EXISTS "
      "(SELECT e.empno FROM emp e WHERE e.dept = d.deptno)");
  ASSERT_NE(g, nullptr);
  const Quantifier* aq = nullptr;
  for (const auto& q : g->top()->quantifiers()) {
    if (q->type == QuantifierType::kAll) aq = q.get();
  }
  ASSERT_NE(aq, nullptr);
  EXPECT_TRUE(aq->requires_empty);
}

TEST_F(BuilderTest, InSubqueryAddsComparisonPredicate) {
  auto g = MustBuild(
      "SELECT e.empno FROM emp e WHERE e.dept IN "
      "(SELECT d.deptno FROM dept d)");
  ASSERT_NE(g, nullptr);
  Box* top = g->top();
  const Quantifier* eq = nullptr;
  for (const auto& q : top->quantifiers()) {
    if (q->type == QuantifierType::kExistential) eq = q.get();
  }
  ASSERT_NE(eq, nullptr);
  bool found = false;
  for (const ExprPtr& p : top->predicates()) {
    if (p->References(eq->id)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(BuilderTest, NotInBecomesAllQuantifierWithNeq) {
  auto g = MustBuild(
      "SELECT e.empno FROM emp e WHERE e.dept NOT IN "
      "(SELECT d.deptno FROM dept d)");
  ASSERT_NE(g, nullptr);
  const Quantifier* aq = nullptr;
  for (const auto& q : g->top()->quantifiers()) {
    if (q->type == QuantifierType::kAll) aq = q.get();
  }
  ASSERT_NE(aq, nullptr);
  EXPECT_FALSE(aq->requires_empty);
}

TEST_F(BuilderTest, ScalarSubqueryBecomesScalarQuantifier) {
  auto g = MustBuild(
      "SELECT e.empno FROM emp e WHERE e.sal > "
      "(SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dept = e.dept)");
  ASSERT_NE(g, nullptr);
  const Quantifier* sq = nullptr;
  for (const auto& q : g->top()->quantifiers()) {
    if (q->type == QuantifierType::kScalar) sq = q.get();
  }
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(sq->input->NumOutputs(), 1);
}

TEST_F(BuilderTest, UnionBuildsSetOpBox) {
  auto g = MustBuild(
      "SELECT empno FROM emp UNION ALL SELECT deptno FROM dept");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->top()->kind(), BoxKind::kSetOp);
  EXPECT_EQ(g->top()->set_op(), SetOpKind::kUnion);
  EXPECT_FALSE(g->top()->enforce_distinct());
  auto g2 = MustBuild("SELECT empno FROM emp UNION SELECT deptno FROM dept");
  ASSERT_NE(g2, nullptr);
  EXPECT_TRUE(g2->top()->enforce_distinct());
}

TEST_F(BuilderTest, SetOpArityMismatchRejected) {
  auto r = Build("SELECT empno, sal FROM emp UNION SELECT deptno FROM dept");
  EXPECT_FALSE(r.ok());
}

TEST_F(BuilderTest, AmbiguousColumnRejected) {
  ASSERT_TRUE(catalog_
                  .CreateTable("emp2", Schema({{"empno", ColumnType::kInt}}))
                  .ok());
  auto r = Build("SELECT empno FROM emp, emp2");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(BuilderTest, UnknownTableAndColumnRejected) {
  EXPECT_FALSE(Build("SELECT x FROM nosuch").ok());
  EXPECT_FALSE(Build("SELECT nocol FROM emp").ok());
  EXPECT_FALSE(Build("SELECT e.nocol FROM emp e").ok());
}

TEST_F(BuilderTest, DerivedTableCannotSeeSiblings) {
  auto r = Build(
      "SELECT x.empno FROM emp e, "
      "(SELECT empno FROM emp WHERE dept = e.dept) x");
  EXPECT_FALSE(r.ok());
}

TEST_F(BuilderTest, OrderByResolvesNamesAndOrdinals) {
  auto g = MustBuild("SELECT empno, sal FROM emp ORDER BY sal DESC, 1");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->order_by.size(), 2u);
  EXPECT_EQ(g->order_by[0].column, 1);
  EXPECT_FALSE(g->order_by[0].ascending);
  EXPECT_EQ(g->order_by[1].column, 0);
  auto bad = Build("SELECT empno FROM emp ORDER BY nosuch");
  EXPECT_FALSE(bad.ok());
}

TEST_F(BuilderTest, RecursiveViewBuildsCycle) {
  ASSERT_TRUE(catalog_
                  .CreateTable("edge", Schema({{"src", ColumnType::kInt},
                                               {"dst", ColumnType::kInt}}))
                  .ok());
  ViewDefinition tc;
  tc.name = "tc";
  tc.is_recursive = true;
  tc.column_names = {"src", "dst"};
  tc.body_sql =
      "SELECT src, dst FROM edge UNION "
      "SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src";
  ASSERT_TRUE(catalog_.CreateView(std::move(tc)).ok());
  auto g = MustBuild("SELECT src, dst FROM tc");
  ASSERT_NE(g, nullptr);
  auto info = g->ComputeStrata();
  EXPECT_FALSE(info.recursive_boxes.empty());
}

TEST_F(BuilderTest, RecursiveViewRequiresUnion) {
  ASSERT_TRUE(catalog_
                  .CreateTable("edge2", Schema({{"src", ColumnType::kInt},
                                                {"dst", ColumnType::kInt}}))
                  .ok());
  ViewDefinition tc;
  tc.name = "badtc";
  tc.is_recursive = true;
  tc.column_names = {"src", "dst"};
  tc.body_sql = "SELECT t.src, e.dst FROM badtc t, edge2 e WHERE t.dst = e.src";
  ASSERT_TRUE(catalog_.CreateView(std::move(tc)).ok());
  EXPECT_FALSE(Build("SELECT src FROM badtc").ok());
}

TEST_F(BuilderTest, GraphValidatesAfterEveryBuild) {
  const char* queries[] = {
      "SELECT empno FROM emp",
      "SELECT dept, COUNT(*) FROM emp GROUP BY dept",
      "SELECT e.empno FROM emp e WHERE e.dept IN (SELECT deptno FROM dept)",
      "SELECT empno FROM emp UNION SELECT deptno FROM dept",
      "SELECT avg_sal FROM avgsal WHERE dept = 3",
  };
  for (const char* q : queries) {
    auto g = MustBuild(q);
    ASSERT_NE(g, nullptr) << q;
    EXPECT_TRUE(g->Validate().ok()) << q;
  }
}

}  // namespace
}  // namespace starmagic
