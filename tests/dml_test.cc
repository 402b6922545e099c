#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>

#include "catalog/table_io.h"
#include "engine/database.h"

namespace starmagic {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE emp (empno INTEGER, name VARCHAR, dept INTEGER,
                        sal DOUBLE);
      INSERT INTO emp VALUES
        (1, 'alice', 10, 100.0), (2, 'bob', 10, 50.0),
        (3, 'carol', 20, 80.0), (4, NULL, NULL, NULL);
    )sql")
                    .ok());
  }

  int64_t Count(const std::string& where = "") {
    auto r = db_.Query("SELECT COUNT(*) AS n FROM emp" +
                           (where.empty() ? "" : " WHERE " + where),
                       QueryOptions(ExecutionStrategy::kOriginal));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->table.rows()[0][0].int_value() : -1;
  }

  Database db_;
};

TEST_F(DmlTest, UpdateWithWhere) {
  ASSERT_TRUE(db_.Execute("UPDATE emp SET sal = sal * 2 WHERE dept = 10").ok());
  auto r = db_.Query("SELECT sal FROM emp WHERE empno = 1",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->table.rows()[0][0].double_value(), 200.0);
  // The NULL-dept row was untouched (WHERE is UNKNOWN there).
  EXPECT_EQ(Count("sal IS NULL"), 1);
}

TEST_F(DmlTest, UpdateMultipleColumnsUsesPreUpdateValues) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE p (a INTEGER, b INTEGER);
    INSERT INTO p VALUES (1, 2);
    UPDATE p SET a = b, b = a;
  )sql")
                  .ok());
  auto r = db_.Query("SELECT a, b FROM p",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(r.ok());
  // Both right-hand sides see the pre-update row: a=2, b=1 (swap).
  EXPECT_EQ(r->table.rows()[0][0].int_value(), 2);
  EXPECT_EQ(r->table.rows()[0][1].int_value(), 1);
}

TEST_F(DmlTest, UpdateWithoutWhereTouchesAllRows) {
  ASSERT_TRUE(db_.Execute("UPDATE emp SET dept = 99").ok());
  EXPECT_EQ(Count("dept = 99"), 4);
}

TEST_F(DmlTest, UpdateTypeMismatchRejected) {
  EXPECT_FALSE(db_.Execute("UPDATE emp SET dept = 'nope'").ok());
  EXPECT_FALSE(db_.Execute("UPDATE emp SET nosuch = 1").ok());
  EXPECT_FALSE(db_.Execute("UPDATE nosuch SET dept = 1").ok());
}

TEST_F(DmlTest, DeleteWithWhere) {
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE sal < 90").ok());
  EXPECT_EQ(Count(), 2);  // alice (100) and the all-NULL row survive
}

TEST_F(DmlTest, DeleteAll) {
  ASSERT_TRUE(db_.Execute("DELETE FROM emp").ok());
  EXPECT_EQ(Count(), 0);
}

TEST_F(DmlTest, SubqueryInDmlRejected) {
  auto s = db_.Execute(
      "DELETE FROM emp WHERE sal > (SELECT AVG(sal) FROM emp)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
}

// A 100k-literal IN list nests only ~17 ORs deep once lowered, so neither
// query compilation nor DML predicate lowering can run out of stack.
TEST_F(DmlTest, LongInListsRunEndToEnd) {
  std::string list = "(";
  for (int v = 30; v < 100'030; ++v) list += std::to_string(v) + ", ";
  list += "10)";  // the only matching item comes last
  // Compiling a 100k-item list takes about a second in an optimized
  // build, so each form runs under one strategy.
  for (const auto& [op, strategy, expected] :
       {std::tuple<std::string, ExecutionStrategy, int64_t>{
            " IN ", ExecutionStrategy::kMagic, 2},
        {" NOT IN ", ExecutionStrategy::kOriginal, 1}}) {
    auto r = db_.Query("SELECT COUNT(*) FROM emp WHERE dept" + op + list,
                       QueryOptions(strategy));
    ASSERT_TRUE(r.ok()) << op << r.status().ToString();
    EXPECT_EQ(r->table.rows()[0][0].int_value(), expected) << op;
  }
  ASSERT_TRUE(db_.Execute("UPDATE emp SET sal = 0 WHERE dept IN " + list).ok());
  EXPECT_EQ(Count("sal = 0"), 2);
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE dept NOT IN " + list).ok());
  EXPECT_EQ(Count(), 3);  // carol (dept 20) is gone; NULL dept is UNKNOWN
}

TEST(CsvTest, SplitHandlesQuotesAndEscapes) {
  auto fields = SplitCsvLine("1,\"a,b\",\"say \"\"hi\"\"\",,\"\"");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 5u);
  EXPECT_EQ((*fields)[0], "1");
  EXPECT_EQ((*fields)[1], std::string("\x01") + "a,b");
  EXPECT_EQ((*fields)[2], std::string("\x01") + "say \"hi\"");
  EXPECT_EQ((*fields)[3], "");                   // unquoted empty -> NULL
  EXPECT_EQ((*fields)[4], std::string("\x01"));  // quoted empty -> ""
}

TEST(CsvTest, RoundTrip) {
  Table t("t", Schema({{"a", ColumnType::kInt},
                       {"s", ColumnType::kString},
                       {"d", ColumnType::kDouble},
                       {"b", ColumnType::kBool}}));
  ASSERT_TRUE(t.Append({Value::Int(1), Value::String("plain"),
                        Value::Double(2.5), Value::Bool(true)})
                  .ok());
  ASSERT_TRUE(t.Append({Value::Null(), Value::String("with,comma \"q\""),
                        Value::Null(), Value::Bool(false)})
                  .ok());
  ASSERT_TRUE(t.Append({Value::Int(-7), Value::String(""), Value::Double(-0.5),
                        Value::Null()})
                  .ok());
  std::string path = ::testing::TempDir() + "/starmagic_csv_roundtrip.csv";
  ASSERT_TRUE(ExportCsv(t, path).ok());

  Table back("back", t.schema());
  ASSERT_TRUE(ImportCsv(&back, path).ok());
  EXPECT_TRUE(Table::BagEquals(t, back));
  std::remove(path.c_str());
}

TEST(CsvTest, ImportValidates) {
  Table t("t", Schema({{"a", ColumnType::kInt}}));
  std::string path = ::testing::TempDir() + "/starmagic_csv_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("a\nnot_a_number\n", f);
    fclose(f);
  }
  EXPECT_FALSE(ImportCsv(&t, path).ok());
  EXPECT_FALSE(ImportCsv(&t, "/no/such/file.csv").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace starmagic
