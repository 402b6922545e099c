#include <gtest/gtest.h>

#include "engine/database.h"

namespace starmagic {
namespace {

// Deterministic pseudo-random generator for data population.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

// One shared database for the whole battery: employee/department/project
// with skew, NULLs, and duplicates, plus layered views.
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    Status s = db_->ExecuteScript(R"sql(
      CREATE TABLE department (deptno INTEGER, deptname VARCHAR,
                               mgrno INTEGER, budget DOUBLE);
      CREATE TABLE employee (empno INTEGER, empname VARCHAR,
                             workdept INTEGER, salary DOUBLE);
      CREATE TABLE assignment (empno INTEGER, projno INTEGER);
    )sql");
    ASSERT_TRUE(s.ok()) << s.ToString();
    Rng rng(777);
    Table* dept = db_->catalog()->GetTable("department");
    Table* emp = db_->catalog()->GetTable("employee");
    Table* assign = db_->catalog()->GetTable("assignment");
    constexpr int kDepts = 30;
    constexpr int kEmps = 600;
    for (int d = 0; d < kDepts; ++d) {
      ASSERT_TRUE(dept->Append({Value::Int(d),
                                Value::String(d == 4 ? "Planning"
                                                     : "D" + std::to_string(d)),
                                Value::Int(d),  // manager = employee d
                                d % 7 == 0 ? Value::Null()
                                           : Value::Double(1000.0 * d)})
                      .ok());
    }
    for (int e = 0; e < kEmps; ++e) {
      int64_t d = e < kDepts ? e : rng.Uniform(kDepts);
      ASSERT_TRUE(emp->Append({Value::Int(e),
                               Value::String("e" + std::to_string(e)),
                               e % 11 == 0 ? Value::Null() : Value::Int(d),
                               e % 13 == 0
                                   ? Value::Null()
                                   : Value::Double(20000.0 +
                                                   static_cast<double>(
                                                       rng.Uniform(50000)))})
                      .ok());
      // Zero to three project assignments with duplicates.
      int64_t n = rng.Uniform(4);
      for (int64_t j = 0; j < n; ++j) {
        ASSERT_TRUE(assign->Append({Value::Int(e),
                                    Value::Int(rng.Uniform(20))})
                        .ok());
      }
    }
    ASSERT_TRUE(db_->SetPrimaryKey("department", {"deptno"}).ok());
    ASSERT_TRUE(db_->SetPrimaryKey("employee", {"empno"}).ok());
    ASSERT_TRUE(db_->ExecuteScript(R"sql(
      CREATE VIEW avgDeptSal (dept, avgsal, headcount) AS
        SELECT workdept, AVG(salary), COUNT(*) FROM employee
        GROUP BY workdept;
      CREATE VIEW busy (empno, projects) AS
        SELECT empno, COUNT(*) FROM assignment GROUP BY empno;
      CREATE VIEW mgrSal (empno, workdept, salary) AS
        SELECT e.empno, e.workdept, e.salary
        FROM employee e, department d WHERE e.empno = d.mgrno;
      ANALYZE;
    )sql")
                    .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* EndToEndTest::db_ = nullptr;

// The battery: every query is executed under all three strategies and the
// results must be bag-equal.
class StrategyEquivalenceTest : public EndToEndTest,
                                public ::testing::WithParamInterface<const char*> {};

TEST_P(StrategyEquivalenceTest, AllStrategiesAgree) {
  const char* sql = GetParam();
  auto original = db_->Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(original.ok()) << sql << "\n" << original.status().ToString();
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kCorrelated, ExecutionStrategy::kMagic}) {
    auto result = db_->Query(sql, QueryOptions(strategy));
    ASSERT_TRUE(result.ok())
        << StrategyName(strategy) << ": " << sql << "\n"
        << result.status().ToString();
    EXPECT_TRUE(Table::BagEquals(original->table, result->table))
        << StrategyName(strategy) << " diverged on: " << sql << "\n"
        << "original (" << original->table.num_rows() << " rows) vs "
        << result->table.num_rows() << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryBattery, StrategyEquivalenceTest,
    ::testing::Values(
        // Plain scans and filters.
        "SELECT empno, salary FROM employee WHERE salary > 40000",
        "SELECT * FROM department WHERE budget IS NULL",
        "SELECT empname FROM employee WHERE empname LIKE 'e1%'",
        // Joins.
        "SELECT e.empno, d.deptname FROM employee e, department d "
        "WHERE e.workdept = d.deptno AND d.deptname = 'Planning'",
        "SELECT e.empno FROM employee e, department d "
        "WHERE e.workdept < d.deptno AND d.deptno = 2",
        // Aggregation views with restrictions (the magic sweet spot).
        "SELECT d.deptname, v.avgsal FROM department d, avgDeptSal v "
        "WHERE d.deptno = v.dept AND d.deptname = 'Planning'",
        "SELECT d.deptname, v.avgsal, v.headcount "
        "FROM department d, avgDeptSal v "
        "WHERE d.deptno = v.dept AND d.budget > 20000",
        "SELECT v.dept, v.avgsal FROM avgDeptSal v WHERE v.dept = 11",
        "SELECT v.dept FROM avgDeptSal v WHERE v.avgsal > 45000",
        // Nested views.
        "SELECT d.deptname, m.salary FROM department d, mgrSal m "
        "WHERE d.deptno = m.workdept AND d.deptname = 'Planning'",
        // Two views joined.
        "SELECT v.dept, b.projects FROM avgDeptSal v, employee e, busy b "
        "WHERE v.dept = e.workdept AND e.empno = b.empno "
        "AND v.dept = 3",
        // Range restriction on a view (condition magic).
        "SELECT d.deptname, v.avgsal FROM department d, avgDeptSal v "
        "WHERE v.dept <= d.deptno AND d.deptname = 'Planning'",
        "SELECT d.deptname, v.avgsal FROM department d, avgDeptSal v "
        "WHERE v.dept >= d.deptno AND d.deptname = 'Planning'",
        // Subqueries.
        "SELECT d.deptname FROM department d WHERE EXISTS "
        "(SELECT e.empno FROM employee e WHERE e.workdept = d.deptno "
        "AND e.salary > 60000)",
        "SELECT d.deptname FROM department d WHERE NOT EXISTS "
        "(SELECT e.empno FROM employee e WHERE e.workdept = d.deptno)",
        "SELECT e.empno FROM employee e WHERE e.workdept IN "
        "(SELECT d.deptno FROM department d WHERE d.budget > 15000)",
        "SELECT e.empno FROM employee e WHERE e.salary > "
        "(SELECT AVG(e2.salary) FROM employee e2 "
        "WHERE e2.workdept = e.workdept)",
        // Duplicates / distinct.
        "SELECT DISTINCT a.projno FROM assignment a, employee e "
        "WHERE a.empno = e.empno AND e.workdept = 4",
        "SELECT a.projno FROM assignment a, employee e "
        "WHERE a.empno = e.empno AND e.workdept = 4",
        // Set operations.
        "SELECT empno FROM employee WHERE workdept = 1 UNION "
        "SELECT mgrno FROM department WHERE deptno < 5",
        "SELECT empno FROM employee WHERE salary > 30000 EXCEPT "
        "SELECT mgrno FROM department",
        "SELECT workdept FROM employee INTERSECT "
        "SELECT deptno FROM department WHERE budget > 10000",
        // Grouping on top of a join.
        "SELECT d.deptname, COUNT(*) AS n, SUM(e.salary) AS total "
        "FROM employee e, department d WHERE e.workdept = d.deptno "
        "GROUP BY d.deptname HAVING COUNT(*) > 10",
        // Expressions and arithmetic.
        "SELECT e.empno, e.salary * 1.1 AS raised FROM employee e "
        "WHERE e.salary + 1000 < 30000",
        // ORDER BY / LIMIT determinism across strategies.
        "SELECT empno, salary FROM employee WHERE workdept = 2 "
        "ORDER BY salary DESC, empno LIMIT 5"));

TEST_F(EndToEndTest, MagicDoesLessWorkOnSelectiveViewQuery) {
  const char* sql =
      "SELECT d.deptname, v.avgsal FROM department d, avgDeptSal v "
      "WHERE d.deptno = v.dept AND d.deptname = 'Planning'";
  auto original = db_->Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  auto magic = db_->Query(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(original.ok() && magic.ok());
  EXPECT_LT(magic->exec_stats.TotalWork(),
            original->exec_stats.TotalWork() / 2)
      << "magic should read far less than a full view materialization";
}

TEST_F(EndToEndTest, CorrelatedBlowsUpOnDuplicateHeavyOuter) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE dup_probe (pd INTEGER)").ok());
  Table* probe = db_->catalog()->GetTable("dup_probe");
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(probe->Append({Value::Int(i % 5)}).ok());
  }
  ASSERT_TRUE(db_->AnalyzeAll().ok());
  const char* sql =
      "SELECT p.pd, v.avgsal FROM dup_probe p, avgDeptSal v "
      "WHERE p.pd = v.dept";
  auto corr = db_->Query(sql, QueryOptions(ExecutionStrategy::kCorrelated));
  auto magic = db_->Query(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(corr.ok() && magic.ok());
  EXPECT_TRUE(Table::BagEquals(corr->table, magic->table));
  // 300 re-evaluations vs one restricted evaluation.
  EXPECT_GT(corr->exec_stats.TotalWork(), 4 * magic->exec_stats.TotalWork());
}

// Integer arithmetic that leaves int64 must fail the query with a typed
// ExecutionError under every strategy: never wrap silently, never trap
// (INT64_MIN / -1 raises SIGFPE on x86 when it reaches the hardware).
class IntegerOverflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (a INTEGER);
      INSERT INTO t VALUES (1);
      CREATE TABLE big (v INTEGER);
      INSERT INTO big VALUES (9223372036854775807), (1);
      ANALYZE;
    )sql")
                    .ok());
  }

  void ExpectOverflow(const std::string& sql) {
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
          ExecutionStrategy::kMagic}) {
      auto r = db_.Query(sql, QueryOptions(strategy));
      ASSERT_FALSE(r.ok()) << StrategyName(strategy) << ": " << sql
                           << " returned " << r->table.ToString(5);
      EXPECT_EQ(r.status().code(), StatusCode::kExecutionError)
          << StrategyName(strategy) << ": " << r.status().ToString();
      EXPECT_NE(r.status().message().find("overflow"), std::string::npos)
          << r.status().ToString();
    }
  }

  Database db_;
};

TEST_F(IntegerOverflowTest, MinIntDividedByMinusOne) {
  ExpectOverflow("SELECT (0 - 9223372036854775807 - 1) / (0 - a) FROM t");
  // Both operands literal: constant folding meets the same division at
  // compile time and leaves it to fail at execution.
  ExpectOverflow("SELECT (0 - 9223372036854775807 - 1) / (0 - 1) FROM t");
}

TEST_F(IntegerOverflowTest, AddSubtractMultiplyNegate) {
  ExpectOverflow("SELECT 9223372036854775807 + a FROM t");
  ExpectOverflow("SELECT a - 9223372036854775807 - 3 FROM t");
  ExpectOverflow("SELECT a * 9223372036854775807 * 2 FROM t");
  ExpectOverflow("SELECT -(a - 9223372036854775807 - 2) FROM t");
  ExpectOverflow("SELECT a FROM t WHERE a + 9223372036854775807 > 0");
}

TEST_F(IntegerOverflowTest, IntegerSum) {
  ExpectOverflow("SELECT SUM(v) FROM big");
  // In range, the same column still sums exactly.
  auto r = db_.Query("SELECT SUM(v) FROM big WHERE v = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.num_rows(), 1);
  EXPECT_EQ(r->table.rows()[0][0].int_value(), 1);
}

}  // namespace
}  // namespace starmagic
