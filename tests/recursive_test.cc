#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/database.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "qgm/printer.h"

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

// True when both EMST candidates (optimizer order "" and sips order
// "-sips") ran their phase 3; the pipeline validates each before costing
// it, so a compile that succeeds had two valid candidates.
bool RanBothEmstCandidates(const QueryResult& r) {
  bool plain = false;
  bool sips = false;
  for (const RuleFireStats& f : r.rule_fires) {
    plain = plain || f.phase == "phase3";
    sips = sips || f.phase == "phase3-sips";
  }
  return plain && sips;
}

constexpr ExecutionStrategy kAllStrategies[] = {
    ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
    ExecutionStrategy::kMagic};

// The rows of `table` as sorted text: equal exactly when the bags are.
std::vector<std::string> SortedRows(const Table& table) {
  std::vector<std::string> rows;
  for (const Row& row : table.rows()) rows.push_back(RowToString(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// `sql` under every strategy (EMST forced, so magic boxes run even where
// the cost comparison would keep the original plan) returns `expected`,
// rows given as RowToString text in any order.
void ExpectBagUnderAllStrategies(Database* db, const std::string& sql,
                                 std::vector<std::string> expected) {
  std::sort(expected.begin(), expected.end());
  for (ExecutionStrategy strategy : kAllStrategies) {
    QueryOptions options(strategy);
    options.pipeline.cost_compare = false;
    auto r = db->Query(sql, options);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(SortedRows(r->table), expected)
        << sql << " under " << StrategyName(strategy);
  }
}

// The transitive closure of the fixture's edges, which every recursive
// view over them below derives.
const std::vector<std::string> kClosure = {
    "(1, 2)", "(1, 3)", "(1, 4)", "(1, 5)", "(1, 6)", "(2, 3)", "(2, 4)",
    "(2, 5)", "(2, 6)", "(3, 4)", "(5, 6)", "(10, 11)", "(10, 12)",
    "(11, 12)"};

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
  EXPECT_TRUE(RanBothEmstCandidates(*magic));
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
  ExpectBagUnderAllStrategies(&db_, "SELECT x FROM even",
                              {"(0)", "(2)", "(4)", "(6)", "(8)", "(10)"});
  ExpectBagUnderAllStrategies(&db_, "SELECT x FROM odd",
                              {"(1)", "(3)", "(5)", "(7)", "(9)"});
  ExpectBagUnderAllStrategies(&db_, "SELECT x FROM odd WHERE x = 7",
                              {"(7)"});
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

// ---------------------------------------------------------------------------
// Semi-naive evaluation: every member of a recursive component keeps an
// append-only relation, and each combination of input rows is derived
// exactly once, so the bags equal those of the naive fixpoint.
// ---------------------------------------------------------------------------

TEST_F(RecursiveTest, NonlinearClosureUnderAllStrategies) {
  // Two quantifiers over the recursive view: each round joins new rows
  // with old ones on both sides.
  ASSERT_TRUE(db_.Execute("CREATE RECURSIVE VIEW hop (src, dst) AS "
                          "SELECT src, dst FROM edge UNION "
                          "SELECT h1.src, h2.dst FROM hop h1, hop h2 "
                          "WHERE h1.dst = h2.src")
                  .ok());
  ExpectBagUnderAllStrategies(&db_, "SELECT src, dst FROM hop", kClosure);
  ExpectBagUnderAllStrategies(&db_, "SELECT src, dst FROM hop WHERE dst = 4",
                              {"(1, 4)", "(2, 4)", "(3, 4)"});
  ExpectBagUnderAllStrategies(&db_, "SELECT dst FROM hop WHERE src = 2",
                              {"(3)", "(4)", "(5)", "(6)"});
}

TEST_F(RecursiveTest, SelectMemberReadOutsideItsComponentKeepsItsBag) {
  // The plain view `nxt` is a join inside `up`'s cycle. A graph builds
  // each view once, so the query's own reference to `nxt`, met after `up`
  // expanded it, reads that same box: a bag member of the recursive
  // component that a box outside it reads. `num2` repeats 1 and 3, so the
  // naive fixpoint's last round, which joins the final up = {0, 1, 2, 3}
  // with num2, yields nxt = {1, 1, 2, 3, 3}. Each derivation must land in
  // the bag once, whichever round first makes it possible.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE num2 (n INTEGER);
    INSERT INTO num2 VALUES (0),(1),(1),(2),(3),(3);
    CREATE RECURSIVE VIEW up (x) AS
      SELECT n FROM num2 WHERE n = 0
      UNION
      SELECT x FROM nxt;
    CREATE VIEW nxt (x) AS
      SELECT m.n FROM num2 m, up u WHERE m.n = u.x + 1;
    ANALYZE;
  )sql")
                  .ok());
  const char* sql = "SELECT n.x FROM up u, nxt n WHERE u.x = 0";
  // The shape under test: the top box reads a select box of the component.
  auto plan = db_.Explain(sql, QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  QueryGraph::StrataInfo strata = plan->graph->ComputeStrata();
  ASSERT_FALSE(strata.recursive_boxes.count(plan->graph->top()->id()));
  bool reads_select_member = false;
  for (const auto& q : plan->graph->top()->quantifiers()) {
    reads_select_member =
        reads_select_member || (q->input->kind() == BoxKind::kSelect &&
                                strata.recursive_boxes.count(q->input->id()));
  }
  EXPECT_TRUE(reads_select_member) << PrintGraph(*plan->graph);
  ExpectBagUnderAllStrategies(&db_, sql,
                              {"(1)", "(1)", "(2)", "(3)", "(3)"});
  ExpectBagUnderAllStrategies(&db_, "SELECT x FROM up",
                              {"(0)", "(1)", "(2)", "(3)"});
}

TEST_F(RecursiveTest, MagicBoxesInsideTheComponent) {
  // A right-linear closure with a bound source: the magic set of the
  // recursive reference is fed by the recursion (m(y) <- m(x), edge(x, y)),
  // so magic boxes are members of the component, evaluated by the same
  // delta rounds.
  ASSERT_TRUE(db_.Execute("CREATE RECURSIVE VIEW rtc (src, dst) AS "
                          "SELECT src, dst FROM edge UNION "
                          "SELECT e.src, t.dst FROM edge e, rtc t "
                          "WHERE e.dst = t.src")
                  .ok());
  const char* sql = "SELECT dst FROM rtc WHERE src = 2";
  QueryOptions magic(ExecutionStrategy::kMagic);
  magic.pipeline.cost_compare = false;
  auto plan = db_.Explain(sql, magic);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->emst_chosen);
  QueryGraph::StrataInfo strata = plan->graph->ComputeStrata();
  int magic_members = 0;
  for (const Box* b : plan->graph->boxes()) {
    if (b->IsMagicRole() && strata.recursive_boxes.count(b->id())) {
      ++magic_members;
    }
  }
  EXPECT_GT(magic_members, 0) << PrintGraph(*plan->graph);
  ExpectBagUnderAllStrategies(&db_, sql, {"(3)", "(4)", "(5)", "(6)"});
  ExpectBagUnderAllStrategies(&db_, "SELECT src, dst FROM rtc", kClosure);
}

TEST_F(RecursiveTest, FixpointIsIdenticalAtEveryThreadCount) {
  // A 40-edge chain with shortcuts: deltas of dozens of rows, split into
  // 4-row morsels, so the joins inside each round run in parallel.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE RECURSIVE VIEW hop (src, dst) AS
      SELECT src, dst FROM edge UNION
      SELECT h1.src, h2.dst FROM hop h1, hop h2 WHERE h1.dst = h2.src;
  )sql")
                  .ok());
  Table* edge = db_.catalog()->GetTable("edge");
  for (int i = 100; i < 140; ++i) {
    edge->AppendUnchecked(Row{Value::Int(i), Value::Int(i + 1)});
    if (i % 7 == 0) edge->AppendUnchecked(Row{Value::Int(i), Value::Int(i + 3)});
  }
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  for (const char* sql :
       {"SELECT src, dst FROM tc", "SELECT src, dst FROM hop",
        "SELECT src FROM tc WHERE dst = 130",
        "SELECT dst FROM hop WHERE src = 105"}) {
    for (ExecutionStrategy strategy : kAllStrategies) {
      QueryOptions options(strategy);
      options.pipeline.cost_compare = false;
      options.morsel_size = 4;
      auto seq = db_.Query(sql, options);
      ASSERT_TRUE(seq.ok()) << sql << ": " << seq.status().ToString();
      ASSERT_GT(seq->exec_stats.fixpoint_iterations, 2) << sql;
      for (int threads : {2, 8}) {
        options.num_threads = threads;
        auto par = db_.Query(sql, options);
        ASSERT_TRUE(par.ok()) << sql << ": " << par.status().ToString();
        const std::string where =
            StrCat(sql, " under ", StrategyName(strategy), " at ", threads,
                   " threads");
        ASSERT_EQ(par->table.num_rows(), seq->table.num_rows()) << where;
        for (int64_t i = 0; i < seq->table.num_rows(); ++i) {
          EXPECT_EQ(RowToString(par->table.rows()[static_cast<size_t>(i)]),
                    RowToString(seq->table.rows()[static_cast<size_t>(i)]))
              << where << " row " << i;
        }
        EXPECT_EQ(par->exec_stats.TotalWork(), seq->exec_stats.TotalWork())
            << where;
        EXPECT_EQ(par->exec_stats.fixpoint_iterations,
                  seq->exec_stats.fixpoint_iterations)
            << where;
        EXPECT_EQ(par->governor.peak_bytes, seq->governor.peak_bytes)
            << where;
      }
    }
  }
}

TEST(RecursiveWorkTest, NeverConvergingRecursionCostsWorkLinearInRounds) {
  // `nat` gains one row per round forever; only the fixpoint-iteration
  // budget ends it. Semi-naive rounds each read one new row, so twice the
  // rounds cost about twice the work (the naive loop re-derived the whole
  // relation every round: about four times).
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER);
    INSERT INTO t VALUES (1);
    CREATE RECURSIVE VIEW nat (n) AS SELECT a FROM t UNION SELECT n + 1 FROM nat;
  )sql")
                  .ok());
  const char* sql = "SELECT COUNT(*) FROM nat";
  auto work_at = [&](int64_t rounds) -> int64_t {
    ResourceBudget budget;
    budget.max_fixpoint_iterations = rounds;
    QueryOptions options(ExecutionStrategy::kOriginal);
    options.budget = budget;
    auto r = db.Query(sql, options);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    // The query log keeps an aborted query's work at 0 (partial counts of
    // an abort are not thread-invariant in general), so the failed run's
    // work is read from an executor over the same plan and budget.
    auto plan = db.Explain(sql, options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return 0;
    ResourceGovernor governor(budget);
    ExecOptions eo;
    eo.governor = &governor;
    Executor executor(plan->graph.get(), db.catalog(), eo);
    auto run = executor.Run();
    EXPECT_EQ(run.status().ToString(), r.status().ToString());
    EXPECT_EQ(executor.stats().fixpoint_iterations, rounds + 1);
    return executor.stats().TotalWork();
  };
  const int64_t at_n = work_at(500);
  const int64_t at_2n = work_at(1000);
  ASSERT_GT(at_n, 0);
  EXPECT_LE(at_2n * 10, at_n * 22) << "work " << at_n << " -> " << at_2n;
}

}  // namespace
}  // namespace starmagic
