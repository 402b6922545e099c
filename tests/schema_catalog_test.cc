#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "sql/parser.h"

namespace starmagic {
namespace {

Schema EmpSchema() {
  return Schema({{"empno", ColumnType::kInt},
                 {"name", ColumnType::kString},
                 {"salary", ColumnType::kDouble}});
}

TEST(SchemaTest, FindColumnIsCaseInsensitive) {
  Schema s = EmpSchema();
  EXPECT_EQ(s.FindColumn("EMPNO"), 0);
  EXPECT_EQ(s.FindColumn("Salary"), 2);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

TEST(SchemaTest, ValueTypeCompatibility) {
  EXPECT_TRUE(ValueMatchesType(Value::Null(), ColumnType::kInt));
  EXPECT_TRUE(ValueMatchesType(Value::Int(1), ColumnType::kInt));
  EXPECT_TRUE(ValueMatchesType(Value::Int(1), ColumnType::kDouble));
  EXPECT_FALSE(ValueMatchesType(Value::Double(1.5), ColumnType::kInt));
  EXPECT_FALSE(ValueMatchesType(Value::String("x"), ColumnType::kInt));
  EXPECT_TRUE(ValueMatchesType(Value::Bool(true), ColumnType::kBool));
}

TEST(TableTest, AppendValidatesArityAndTypes) {
  Table t("emp", EmpSchema());
  EXPECT_TRUE(t.Append({Value::Int(1), Value::String("a"), Value::Double(9.5)}).ok());
  EXPECT_TRUE(t.Append({Value::Int(2), Value::Null(), Value::Int(7)}).ok());
  EXPECT_FALSE(t.Append({Value::Int(3)}).ok());  // arity
  EXPECT_FALSE(
      t.Append({Value::String("x"), Value::String("a"), Value::Double(1)}).ok());
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(TableTest, BagEqualsIgnoresOrderButCountsDuplicates) {
  Table a("a", EmpSchema());
  Table b("b", EmpSchema());
  Row r1 = {Value::Int(1), Value::String("x"), Value::Double(1)};
  Row r2 = {Value::Int(2), Value::String("y"), Value::Double(2)};
  ASSERT_TRUE(a.Append(r1).ok());
  ASSERT_TRUE(a.Append(r2).ok());
  ASSERT_TRUE(b.Append(r2).ok());
  ASSERT_TRUE(b.Append(r1).ok());
  EXPECT_TRUE(Table::BagEquals(a, b));
  ASSERT_TRUE(b.Append(r1).ok());  // extra duplicate
  EXPECT_FALSE(Table::BagEquals(a, b));
}

TEST(StatisticsTest, AnalyzeComputesCounts) {
  Table t("emp", EmpSchema());
  ASSERT_TRUE(t.Append({Value::Int(1), Value::String("a"), Value::Double(10)}).ok());
  ASSERT_TRUE(t.Append({Value::Int(2), Value::String("a"), Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value::Int(3), Value::String("b"), Value::Double(30)}).ok());
  TableStats stats = Analyze(t);
  EXPECT_EQ(stats.row_count, 3);
  EXPECT_EQ(stats.columns[0].distinct_count, 3);
  EXPECT_EQ(stats.columns[1].distinct_count, 2);
  EXPECT_EQ(stats.columns[2].null_count, 1);
  EXPECT_EQ(stats.columns[2].distinct_count, 3);  // 2 values + null
  EXPECT_EQ(stats.columns[0].min.int_value(), 1);
  EXPECT_EQ(stats.columns[0].max.int_value(), 3);
}

TEST(CatalogTest, CreateGetDropTable) {
  Catalog c;
  EXPECT_TRUE(c.CreateTable("Emp", EmpSchema()).ok());
  EXPECT_TRUE(c.HasTable("emp"));  // case-insensitive
  EXPECT_NE(c.GetTable("EMP"), nullptr);
  EXPECT_EQ(c.CreateTable("emp", EmpSchema()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(c.DropTable("emp").ok());
  EXPECT_FALSE(c.HasTable("emp"));
  EXPECT_EQ(c.DropTable("emp").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, ViewsShareNamespaceWithTables) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", EmpSchema()).ok());
  ViewDefinition v;
  v.name = "T";
  v.body_sql = "SELECT empno FROM t";
  EXPECT_EQ(c.CreateView(std::move(v)).code(), StatusCode::kAlreadyExists);
  ViewDefinition v2;
  v2.name = "v";
  v2.body_sql = "SELECT empno FROM t";
  ASSERT_TRUE(c.CreateView(std::move(v2)).ok());
  EXPECT_TRUE(c.HasView("V"));
  EXPECT_NE(c.GetView("v"), nullptr);
  EXPECT_TRUE(c.DropView("v").ok());
}

TEST(CatalogTest, CreateViewKeepsTheParsedBody) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", EmpSchema()).ok());
  // A definition given only as text is parsed once, at registration.
  ViewDefinition v;
  v.name = "v";
  v.body_sql = "SELECT empno FROM t";
  ASSERT_TRUE(c.CreateView(std::move(v)).ok());
  ASSERT_NE(c.GetView("v"), nullptr);
  ASSERT_NE(c.GetView("v")->body, nullptr);
  EXPECT_EQ(c.GetView("v")->body->ToString(),
            ParseQuery("SELECT empno FROM t").value()->ToString());
  // Text that does not parse is rejected up front, not at first use.
  ViewDefinition bad;
  bad.name = "bad";
  bad.body_sql = "SELECT FROM WHERE";
  EXPECT_EQ(c.CreateView(std::move(bad)).code(), StatusCode::kParseError);
  EXPECT_FALSE(c.HasView("bad"));
}

TEST(CatalogTest, StatisticsFreshnessTracksMutations) {
  Catalog c;
  // Absent tables are never reported stale.
  EXPECT_FALSE(c.StatsStale("ghost"));
  EXPECT_EQ(c.TableVersion("ghost"), 0);
  EXPECT_EQ(c.LastAnalyzeVersion("ghost"), -1);

  ASSERT_TRUE(c.CreateTable("b_emp", EmpSchema()).ok());
  ASSERT_TRUE(c.CreateTable("a_dept", EmpSchema()).ok());
  EXPECT_EQ(c.TableVersion("b_emp"), 0);
  EXPECT_EQ(c.LastAnalyzeVersion("b_emp"), -1);  // never analyzed
  EXPECT_TRUE(c.StatsStale("b_emp"));

  // Name-sorted, case-normalized.
  std::vector<std::string> stale = c.StaleStatsTables();
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0], "a_dept");
  EXPECT_EQ(stale[1], "b_emp");

  ASSERT_TRUE(c.AnalyzeAll().ok());
  EXPECT_FALSE(c.StatsStale("b_emp"));
  EXPECT_EQ(c.LastAnalyzeVersion("b_emp"), c.TableVersion("b_emp"));
  EXPECT_TRUE(c.StaleStatsTables().empty());

  // INSERT path: MaintainAfterAppend bumps the version -> stale again.
  ASSERT_TRUE(c.GetTable("b_emp")
                  ->Append({Value::Int(1), Value::String("a"), Value::Double(1)})
                  .ok());
  c.MaintainAfterAppend("b_emp");
  EXPECT_EQ(c.TableVersion("b_emp"), 1);
  EXPECT_TRUE(c.StatsStale("b_emp"));
  EXPECT_FALSE(c.StatsStale("a_dept"));
  EXPECT_EQ(c.StaleStatsTables(), std::vector<std::string>{"b_emp"});

  ASSERT_TRUE(c.AnalyzeTable("b_emp").ok());
  EXPECT_FALSE(c.StatsStale("b_emp"));
  EXPECT_EQ(c.LastAnalyzeVersion("b_emp"), 1);

  // UPDATE/DELETE path: ReindexTable also bumps.
  ASSERT_TRUE(c.ReindexTable("b_emp").ok());
  EXPECT_EQ(c.TableVersion("b_emp"), 2);
  EXPECT_TRUE(c.StatsStale("b_emp"));

  // Dropping the table forgets its version history.
  ASSERT_TRUE(c.DropTable("b_emp").ok());
  EXPECT_FALSE(c.StatsStale("b_emp"));
  EXPECT_EQ(c.TableVersion("b_emp"), 0);
  EXPECT_EQ(c.LastAnalyzeVersion("b_emp"), -1);
}

TEST(CatalogTest, AnalyzeAllAndStats) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", EmpSchema()).ok());
  ASSERT_TRUE(c.GetTable("t")
                  ->Append({Value::Int(1), Value::String("a"), Value::Double(1)})
                  .ok());
  EXPECT_EQ(c.GetStats("t"), nullptr);
  ASSERT_TRUE(c.AnalyzeAll().ok());
  ASSERT_NE(c.GetStats("t"), nullptr);
  EXPECT_EQ(c.GetStats("t")->row_count, 1);
  EXPECT_EQ(c.AnalyzeTable("missing").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace starmagic
