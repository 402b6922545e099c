#include <gtest/gtest.h>

#include <string>

#include "engine/database.h"

namespace starmagic {
namespace {

class RecursiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE edge (src INTEGER, dst INTEGER);
      INSERT INTO edge VALUES (1,2),(2,3),(3,4),(2,5),(5,6),(10,11),(11,12);
      CREATE RECURSIVE VIEW tc (src, dst) AS
        SELECT src, dst FROM edge
        UNION
        SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
      ANALYZE;
    )sql")
                    .ok());
  }
  Database db_;
};

TEST_F(RecursiveTest, FullClosureIsCorrect) {
  auto r = db_.Query("SELECT COUNT(*) AS n FROM tc",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Reachability pairs: from 1: {2,3,4,5,6}; 2: {3,4,5,6}; 3:{4}; 5:{6};
  // 10:{11,12}; 11:{12}. Total 5+4+1+1+2+1 = 14.
  EXPECT_EQ(r->table.rows()[0][0].int_value(), 14);
}

TEST_F(RecursiveTest, BoundSourceAgreesAcrossStrategies) {
  const char* sql = "SELECT src, dst FROM tc WHERE src = 2 ORDER BY dst";
  auto orig = db_.Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  auto magic = db_.Query(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(orig.ok()) << orig.status().ToString();
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  ASSERT_EQ(orig->table.num_rows(), 4);  // 3, 4, 5, 6
  EXPECT_TRUE(Table::BagEquals(orig->table, magic->table));
}

TEST_F(RecursiveTest, MagicRestrictsTheFixpoint) {
  const char* sql = "SELECT dst FROM tc WHERE src = 10";
  auto orig = db_.Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  // On this tiny graph the cost comparison may legitimately keep the
  // original plan; force the transformation to observe the restriction.
  QueryOptions magic_options(ExecutionStrategy::kMagic);
  magic_options.pipeline.cost_compare = false;
  auto magic = db_.Query(sql, magic_options);
  ASSERT_TRUE(orig.ok() && magic.ok())
      << orig.status().ToString() << magic.status().ToString();
  ASSERT_EQ(magic->table.num_rows(), 2);  // 11, 12
  EXPECT_TRUE(Table::BagEquals(orig->table, magic->table));
  EXPECT_LT(magic->exec_stats.TotalWork(), orig->exec_stats.TotalWork());
}

TEST_F(RecursiveTest, BoundDestinationAlsoWorks) {
  const char* sql = "SELECT src FROM tc WHERE dst = 6 ORDER BY src";
  auto orig = db_.Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  auto magic = db_.Query(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(orig.ok() && magic.ok());
  ASSERT_EQ(orig->table.num_rows(), 3);  // 1, 2, 5 reach 6
  EXPECT_TRUE(Table::BagEquals(orig->table, magic->table));
}

// Nonlinear recursion: the body joins the view with itself, so the
// bound-destination query adorns the view fb, its inner reference bf, and
// the join of the two bb. Each adornment needs a magic table of its own
// arity; a bb copy cloned from the bf one used to inherit bf's one-column
// magic and union it with its own two-column one.
TEST_F(RecursiveTest, NonlinearRecursionGivesEachAdornmentItsOwnMagic) {
  ASSERT_TRUE(db_.Execute("CREATE RECURSIVE VIEW hop (src, dst) AS "
                          "SELECT src, dst FROM edge UNION "
                          "SELECT h1.src, h2.dst FROM hop h1, hop h2 "
                          "WHERE h1.dst = h2.src")
                  .ok());
  const char* sql = "SELECT src, dst FROM hop WHERE dst = 4";
  auto orig = db_.Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  QueryOptions magic_options(ExecutionStrategy::kMagic);
  magic_options.pipeline.cost_compare = false;
  auto magic = db_.Query(sql, magic_options);
  ASSERT_TRUE(orig.ok()) << orig.status().ToString();
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  EXPECT_TRUE(magic->emst_chosen);
  ASSERT_EQ(orig->table.num_rows(), 3);  // 1, 2 and 3 reach 4
  EXPECT_TRUE(Table::BagEquals(orig->table, magic->table));
}

TEST_F(RecursiveTest, MutualRecursionThroughTwoViews) {
  // even(x) <- x = 0;  even(x) <- odd(x-1);  odd(x) <- even(x-1)
  // over a numbers table 0..10.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE num (n INTEGER);
    INSERT INTO num VALUES (0),(1),(2),(3),(4),(5),(6),(7),(8),(9),(10);
    CREATE RECURSIVE VIEW even (x) AS
      SELECT n FROM num WHERE n = 0
      UNION
      SELECT n.n FROM num n, odd o WHERE n.n = o.x + 1;
    CREATE RECURSIVE VIEW odd (x) AS
      SELECT n.n FROM num n, even e WHERE n.n = e.x + 1
      UNION
      SELECT n.n FROM num n, even e WHERE n.n = e.x + 1;
    ANALYZE;
  )sql")
                  .ok());
  auto r = db_.Query("SELECT x FROM even ORDER BY x",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.num_rows(), 6);  // 0,2,4,6,8,10
  EXPECT_EQ(r->table.rows()[5][0].int_value(), 10);
}

TEST_F(RecursiveTest, PlainViewCyclesAreTypedErrors) {
  // Only CREATE RECURSIVE VIEW may recur. A plain view that reaches itself,
  // directly or through another plain view, is a SemanticError naming it
  // under every strategy and under EXPLAIN, not an endless expansion.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER);
    CREATE VIEW selfref (a) AS SELECT a FROM selfref;
    CREATE VIEW ping (a) AS SELECT a FROM pong;
    CREATE VIEW pong (a) AS SELECT a FROM ping;
  )sql")
                  .ok());
  for (const char* view : {"selfref", "ping", "pong"}) {
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
          ExecutionStrategy::kMagic}) {
      for (const char* prefix : {"", "EXPLAIN "}) {
        std::string sql = std::string(prefix) + "SELECT a FROM " + view;
        auto r = db_.Query(sql, QueryOptions(strategy));
        ASSERT_FALSE(r.ok()) << sql;
        EXPECT_EQ(r.status().code(), StatusCode::kSemanticError)
            << sql << ": " << r.status().ToString();
        EXPECT_NE(r.status().message().find(std::string("view '") + view),
                  std::string::npos)
            << sql << ": " << r.status().ToString();
      }
    }
  }
}

TEST_F(RecursiveTest, PlainViewInsideARecursiveCycleExpands) {
  // A cycle through a recursive view ends at its placeholder, whichever
  // view the query names first.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE RECURSIVE VIEW reach (src, dst) AS
      SELECT src, dst FROM edge
      UNION
      SELECT h.src, e.dst FROM hop h, edge e WHERE h.dst = e.src;
    CREATE VIEW hop (src, dst) AS SELECT src, dst FROM reach;
  )sql")
                  .ok());
  for (const char* view : {"reach", "hop"}) {
    auto r = db_.Query(std::string("SELECT COUNT(*) FROM ") + view,
                       QueryOptions(ExecutionStrategy::kOriginal));
    ASSERT_TRUE(r.ok()) << view << ": " << r.status().ToString();
    EXPECT_EQ(r->table.rows()[0][0].int_value(), 14) << view;  // as tc
  }
}

TEST_F(RecursiveTest, AggregationThroughRecursionRejected) {
  ASSERT_TRUE(db_.Execute(
                    "CREATE RECURSIVE VIEW badagg (src, n) AS "
                    "SELECT src, 1 FROM edge UNION "
                    "SELECT src, COUNT(*) FROM badagg GROUP BY src")
                  .ok());
  auto r = db_.Query("SELECT src FROM badagg",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(RecursiveTest, NegationThroughRecursionRejected) {
  ASSERT_TRUE(db_.Execute(
                    "CREATE RECURSIVE VIEW badneg (src, dst) AS "
                    "SELECT src, dst FROM edge UNION "
                    "SELECT e.src, e.dst FROM edge e WHERE NOT EXISTS "
                    "(SELECT b.src FROM badneg b WHERE b.src = e.src)")
                  .ok());
  auto r = db_.Query("SELECT src FROM badneg",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(RecursiveTest, UnionAllRecursionRejectedAtBuild) {
  ASSERT_TRUE(db_.Execute(
                    "CREATE RECURSIVE VIEW badall (src, dst) AS "
                    "SELECT src, dst FROM edge UNION ALL "
                    "SELECT t.src, e.dst FROM badall t, edge e "
                    "WHERE t.dst = e.src")
                  .ok());
  auto r = db_.Query("SELECT src FROM badall",
                     QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(RecursiveTest, JoinOfRecursiveViewWithBaseTable) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE label (node INTEGER, tag VARCHAR);
    INSERT INTO label VALUES (4, 'goal'), (6, 'goal'), (12, 'other');
    ANALYZE;
  )sql")
                  .ok());
  const char* sql =
      "SELECT t.dst, l.tag FROM tc t, label l "
      "WHERE t.dst = l.node AND t.src = 1 ORDER BY dst";
  auto orig = db_.Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
  auto magic = db_.Query(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(orig.ok() && magic.ok())
      << orig.status().ToString() << magic.status().ToString();
  ASSERT_EQ(orig->table.num_rows(), 2);  // 4 and 6 reachable from 1
  EXPECT_TRUE(Table::BagEquals(orig->table, magic->table));
}

}  // namespace
}  // namespace starmagic
