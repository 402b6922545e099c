#include "sql/parser.h"

#include <gtest/gtest.h>

#include "engine/database.h"

namespace starmagic {
namespace {

std::unique_ptr<AstBlob> MustParseQuery(const std::string& sql) {
  auto r = ParseQuery(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(*r) : nullptr;
}

TEST(ParserTest, SimpleSelect) {
  auto blob = MustParseQuery("SELECT a, b FROM t WHERE a = 1");
  ASSERT_NE(blob, nullptr);
  ASSERT_TRUE(blob->IsSingleBlock());
  EXPECT_EQ(blob->first->items.size(), 2u);
  EXPECT_EQ(blob->first->from.size(), 1u);
  ASSERT_NE(blob->first->where, nullptr);
}

TEST(ParserTest, SelectDistinctStarAndQualifiedStar) {
  auto blob = MustParseQuery("SELECT DISTINCT *, t.* FROM t");
  ASSERT_NE(blob, nullptr);
  EXPECT_TRUE(blob->first->distinct);
  EXPECT_TRUE(blob->first->items[0].is_star);
  EXPECT_EQ(blob->first->items[1].star_qualifier, "t");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto blob = MustParseQuery("SELECT e.empno AS id, e.salary sal "
                             "FROM employee AS e, department d");
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->first->items[0].alias, "id");
  EXPECT_EQ(blob->first->items[1].alias, "sal");
  EXPECT_EQ(blob->first->from[0].alias, "e");
  EXPECT_EQ(blob->first->from[1].alias, "d");
}

TEST(ParserTest, GroupByHavingBothSpellings) {
  auto a = MustParseQuery(
      "SELECT dept, AVG(sal) FROM emp GROUP BY dept HAVING AVG(sal) > 10");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->first->group_by.size(), 1u);
  ASSERT_NE(a->first->having, nullptr);
  // The paper writes GROUPBY as one token; we accept it too.
  auto b = MustParseQuery("SELECT dept, AVG(sal) FROM emp GROUPBY dept");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->first->group_by.size(), 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto blob = MustParseQuery("SELECT a + b * c - d FROM t");
  ASSERT_NE(blob, nullptr);
  // (a + (b*c)) - d
  EXPECT_EQ(blob->first->items[0].expr->ToString(), "a + b * c - d");
}

TEST(ParserTest, AndOrPrecedence) {
  auto blob =
      MustParseQuery("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_NE(blob, nullptr);
  const auto& where = static_cast<const AstBinary&>(*blob->first->where);
  EXPECT_EQ(where.op, BinaryOp::kOr);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  auto blob = MustParseQuery(
      "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 5 "
      "AND c LIKE 'x%' AND d IS NOT NULL AND e NOT IN (4)");
  ASSERT_NE(blob, nullptr);
}

TEST(ParserTest, SubqueryForms) {
  auto blob = MustParseQuery(
      "SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.b = t.a) "
      "AND a IN (SELECT c FROM v) "
      "AND a > (SELECT AVG(d) FROM w)");
  ASSERT_NE(blob, nullptr);
}

TEST(ParserTest, DerivedTable) {
  auto blob = MustParseQuery(
      "SELECT x.a FROM (SELECT a FROM t WHERE a > 1) AS x");
  ASSERT_NE(blob, nullptr);
  EXPECT_NE(blob->first->from[0].subquery, nullptr);
  EXPECT_EQ(blob->first->from[0].alias, "x");
}

TEST(ParserTest, SetOperations) {
  auto blob = MustParseQuery(
      "SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v "
      "EXCEPT SELECT a FROM w INTERSECT SELECT a FROM x");
  ASSERT_NE(blob, nullptr);
  ASSERT_EQ(blob->rest.size(), 4u);
  EXPECT_EQ(blob->rest[0].first, SetOp::kUnion);
  EXPECT_EQ(blob->rest[1].first, SetOp::kUnionAll);
  EXPECT_EQ(blob->rest[2].first, SetOp::kExcept);
  EXPECT_EQ(blob->rest[3].first, SetOp::kIntersect);
}

TEST(ParserTest, OrderByLimit) {
  auto blob = MustParseQuery("SELECT a FROM t ORDER BY a DESC, 2 LIMIT 10");
  ASSERT_NE(blob, nullptr);
  ASSERT_EQ(blob->order_by.size(), 2u);
  EXPECT_FALSE(blob->order_by[0].ascending);
  EXPECT_TRUE(blob->order_by[1].ascending);
  EXPECT_EQ(blob->limit, 10);
}

TEST(ParserTest, CreateTable) {
  auto r = ParseStatement(
      "CREATE TABLE emp (empno INTEGER, name VARCHAR(30), sal DOUBLE, "
      "active BOOLEAN)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& ct = static_cast<const AstCreateTable&>(**r);
  EXPECT_EQ(ct.name, "emp");
  ASSERT_EQ(ct.schema.num_columns(), 4);
  EXPECT_EQ(ct.schema.column(1).type, ColumnType::kString);
}

TEST(ParserTest, CreateViewCapturesBodySql) {
  auto r = ParseStatement(
      "CREATE VIEW v (a, b) AS SELECT x, y FROM t WHERE x > 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& cv = static_cast<const AstCreateView&>(**r);
  EXPECT_EQ(cv.name, "v");
  EXPECT_EQ(cv.column_names.size(), 2u);
  EXPECT_EQ(cv.body_sql, "SELECT x, y FROM t WHERE x > 0");
  EXPECT_FALSE(cv.recursive);
}

TEST(ParserTest, CreateRecursiveView) {
  auto r = ParseStatement(
      "CREATE RECURSIVE VIEW tc (src, dst) AS "
      "SELECT src, dst FROM edge UNION "
      "SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(static_cast<const AstCreateView&>(**r).recursive);
}

TEST(ParserTest, InsertMultipleRows) {
  auto r = ParseStatement(
      "INSERT INTO t VALUES (1, 'a', NULL), (-2, 'b', 3.5)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& ins = static_cast<const AstInsert&>(**r);
  ASSERT_EQ(ins.rows.size(), 2u);
  EXPECT_TRUE(ins.rows[0][2].is_null());
  EXPECT_EQ(ins.rows[1][0].int_value(), -2);
}

TEST(ParserTest, PrepareCapturesBodySqlAndParamCount) {
  auto r = ParseStatement(
      "PREPARE deep AS SELECT dst FROM tc WHERE src = ? AND dst < ?");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& prep = static_cast<const AstPrepare&>(**r);
  EXPECT_EQ(prep.name, "deep");
  EXPECT_EQ(prep.body_sql, "SELECT dst FROM tc WHERE src = ? AND dst < ?");
  EXPECT_EQ(prep.num_params, 2);
  ASSERT_NE(prep.body, nullptr);
  ASSERT_TRUE(prep.body->IsSingleBlock());
}

TEST(ParserTest, PrepareWithoutParamsCountsZero) {
  auto r = ParseStatement("PREPARE p AS SELECT a FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<const AstPrepare&>(**r).num_params, 0);
}

TEST(ParserTest, ExecuteWithAndWithoutArgs) {
  auto r = ParseStatement("EXECUTE deep(3, -1.5, 'x', NULL, TRUE)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& exec = static_cast<const AstExecute&>(**r);
  EXPECT_EQ(exec.name, "deep");
  ASSERT_EQ(exec.args.size(), 5u);
  EXPECT_EQ(exec.args[0].int_value(), 3);
  EXPECT_EQ(exec.args[1].double_value(), -1.5);
  EXPECT_EQ(exec.args[2].string_value(), "x");
  EXPECT_TRUE(exec.args[3].is_null());
  EXPECT_EQ(exec.args[4].bool_value(), true);

  auto bare = ParseStatement("EXECUTE deep");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_TRUE(static_cast<const AstExecute&>(**bare).args.empty());
}

TEST(ParserTest, ExecuteArgsAreLiteralsOnly) {
  // Arguments bind after plan-cache fetch; expressions would need the
  // compile path the cache exists to skip.
  EXPECT_FALSE(ParseStatement("EXECUTE p(1 + 2)").ok());
  EXPECT_FALSE(ParseStatement("EXECUTE p(a)").ok());
}

TEST(ParserTest, Deallocate) {
  auto r = ParseStatement("DEALLOCATE deep");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<const AstDeallocate&>(**r).name, "deep");
}

TEST(ParserTest, ParametersNumberInTextOrder) {
  auto blob = MustParseQuery("SELECT ?, ? FROM t");
  ASSERT_NE(blob, nullptr);
  ASSERT_EQ(blob->first->items.size(), 2u);
  const auto& p0 = static_cast<const AstParameter&>(*blob->first->items[0].expr);
  const auto& p1 = static_cast<const AstParameter&>(*blob->first->items[1].expr);
  ASSERT_EQ(p0.kind, AstExprKind::kParameter);
  ASSERT_EQ(p1.kind, AstExprKind::kParameter);
  EXPECT_EQ(p0.index, 0);
  EXPECT_EQ(p1.index, 1);
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto r = ParseScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseQuery("SELECT a FROM t garbage garbage").ok());
}

TEST(ParserTest, ErrorsCarryLineInfo) {
  auto r = ParseQuery("SELECT a\nFROM\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

// "SELECT " + k x `open` + `leaf` + k x `close` + `tail`.
std::string Nested(int k, const std::string& open, const std::string& close,
                   const std::string& leaf = "1",
                   const std::string& tail = "") {
  std::string sql = "SELECT ";
  for (int i = 0; i < k; ++i) sql += open;
  sql += leaf;
  for (int i = 0; i < k; ++i) sql += close;
  return sql + tail;
}

// "SELECT `leaf`" + k x (`op` + `leaf`) + `tail`: a k-operator chain.
std::string Chain(int k, const std::string& op, const std::string& leaf = "1",
                  const std::string& tail = "") {
  std::string sql = "SELECT " + leaf;
  for (int i = 0; i < k; ++i) sql += op + leaf;
  return sql + tail;
}

void ExpectTooDeep(const std::string& sql) {
  auto r = ParseStatement(sql);
  ASSERT_FALSE(r.ok()) << sql.substr(0, 40);
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("nests deeper"), std::string::npos)
      << r.status().ToString();
}

// The SELECT's block and its select item are two of the levels.
constexpr int kLimitNesting = kMaxParseDepth - 2;

TEST(ParserTest, NestingAtTheLimitParses) {
  for (const std::string& sql :
       {Nested(kLimitNesting, "(", ")"), Nested(kLimitNesting, "- ", ""),
        Nested(kLimitNesting, "+ ", ""), Nested(kLimitNesting, "NOT ", ""),
        // Each scalar subquery is a block plus its select item.
        Nested(kLimitNesting / 2, "(SELECT ", ")"),
        // Each operator of a chain nests the one before it.
        Chain(kLimitNesting, " + "), Chain(kLimitNesting, " * "),
        Chain(kLimitNesting, " AND ", "TRUE"),
        Chain(kLimitNesting, " OR ", "TRUE")}) {
    auto r = ParseStatement(sql);
    EXPECT_TRUE(r.ok()) << sql.substr(0, 40) << ": " << r.status().ToString();
  }
}

TEST(ParserTest, NestingPastTheLimitIsParseError) {
  ExpectTooDeep(Nested(kLimitNesting + 1, "(", ")"));
  ExpectTooDeep(Nested(kLimitNesting + 1, "- ", ""));
  ExpectTooDeep(Nested(kLimitNesting + 1, "+ ", ""));
  ExpectTooDeep(Nested(kLimitNesting + 1, "NOT ", ""));
  ExpectTooDeep(Nested(kLimitNesting / 2 + 1, "(SELECT ", ")"));
  ExpectTooDeep(Nested(kLimitNesting + 1, "SUM(", ")"));
  ExpectTooDeep(Chain(kLimitNesting + 1, " - "));
  ExpectTooDeep(Chain(kLimitNesting + 1, " / "));
  ExpectTooDeep(Chain(kLimitNesting + 1, " AND ", "TRUE"));
  ExpectTooDeep(Chain(kLimitNesting + 1, " OR ", "TRUE"));
  // Far past the limit: these overflowed the stack before it existed.
  ExpectTooDeep(Nested(5000, "(", ")"));
  ExpectTooDeep(Nested(100000, "- ", ""));
  ExpectTooDeep(Chain(100000, " + ", "a", " FROM t"));
  // The limit holds wherever an expression or query starts.
  ExpectTooDeep("SELECT a FROM t WHERE " +
                Nested(kLimitNesting + 1, "(", ")").substr(7));
  ExpectTooDeep("CREATE VIEW v AS " +
                Nested(kLimitNesting / 2 + 1, "(SELECT ", ")"));
}

TEST(ParserTest, StatementsAtTheNestingLimitRunEndToEnd) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);"
                               "INSERT INTO t VALUES (1);")
                  .ok());
  const std::string from = " FROM t";
  for (const std::string& sql :
       {Nested(kLimitNesting, "(", ")", "a", from),
        Nested(kLimitNesting, "- ", "", "a", from),
        Nested(kLimitNesting, "- ", "", "1", from),
        Nested(kLimitNesting, "NOT ", "", "a = 1", from),
        Chain(kLimitNesting, " + ", "a", from),
        Chain(kLimitNesting, " + ", "1", from),
        Nested(kLimitNesting / 2, "(SELECT ", ")", "1", from),
        "SELECT a FROM t WHERE " +
            Chain(kLimitNesting, " AND ", "a = 1").substr(7)}) {
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kOriginal, ExecutionStrategy::kMagic}) {
      auto r = db.Query(sql, QueryOptions(strategy));
      ASSERT_TRUE(r.ok()) << sql.substr(0, 40) << ": "
                          << r.status().ToString();
      EXPECT_EQ(r->table.num_rows(), 1);
    }
  }
}

TEST(ParserTest, BlobToStringRoundTripsThroughParser) {
  const char* queries[] = {
      "SELECT a, b FROM t WHERE a = 1 AND b < 2",
      "SELECT DISTINCT a FROM t, u WHERE t.x = u.y",
      "SELECT dept, AVG(sal) AS avgsal FROM emp GROUP BY dept "
      "HAVING COUNT(*) > 2",
      "SELECT a FROM t UNION SELECT b FROM u",
  };
  for (const char* q : queries) {
    auto blob = MustParseQuery(q);
    ASSERT_NE(blob, nullptr) << q;
    std::string rendered = blob->ToString();
    auto reparsed = ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ((*reparsed)->ToString(), rendered);
  }
}

}  // namespace
}  // namespace starmagic
