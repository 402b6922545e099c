#include "optimizer/pipeline.h"

#include <gtest/gtest.h>

#include "engine/database.h"
#include "qgm/printer.h"
#include "workloads.h"

namespace starmagic {
namespace {

// The optimization pipeline must stay *correct* under every combination of
// rule toggles and EMST options — disabled rules may cost performance,
// never answers.
class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE department (deptno INTEGER, deptname VARCHAR, mgrno INTEGER);
      CREATE TABLE employee (empno INTEGER, empname VARCHAR,
                             workdept INTEGER, salary DOUBLE);
      INSERT INTO department VALUES (1, 'Planning', 100), (2, 'Ops', 200),
                                    (3, 'R&D', 300), (4, 'Sales', 301);
      INSERT INTO employee VALUES
        (100, 'alice', 1, 100.0), (101, 'bob', 1, 50.0),
        (200, 'carol', 2, 80.0), (201, 'dan', 2, 61.0),
        (300, 'erin', 3, 120.0), (301, 'faye', 4, 91.0),
        (302, 'gus', NULL, 77.0);
      CREATE VIEW avgSal (dept, avg_sal, n) AS
        SELECT workdept, AVG(salary), COUNT(*) FROM employee
        GROUP BY workdept;
      ANALYZE;
    )sql")
                    .ok());
    ASSERT_TRUE(db_.SetPrimaryKey("department", {"deptno"}).ok());
    ASSERT_TRUE(db_.SetPrimaryKey("employee", {"empno"}).ok());
  }

  Table Reference(const std::string& sql) {
    // A pipeline with every optimization off is the semantic reference.
    QueryOptions options(ExecutionStrategy::kOriginal);
    options.pipeline.toggles = RewriteToggles{false, false, false,
                                              false, false, false};
    auto r = db_.Query(sql, options);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r->table) : Table{};
  }

  Database db_;
};

TEST_F(PipelineTest, EveryToggleOffCombinationIsCorrect) {
  const char* sql =
      "SELECT d.deptname, v.avg_sal FROM department d, avgSal v "
      "WHERE d.deptno = v.dept AND d.deptname = 'Planning'";
  Table reference = Reference(sql);
  ASSERT_EQ(reference.num_rows(), 1);
  for (int off_bit = 0; off_bit < 6; ++off_bit) {
    QueryOptions options(ExecutionStrategy::kMagic);
    RewriteToggles& t = options.pipeline.toggles;
    if (off_bit == 0) t.merge = false;
    if (off_bit == 1) t.local_pushdown = false;
    if (off_bit == 2) t.distinct_pullup = false;
    if (off_bit == 3) t.redundant_join = false;
    if (off_bit == 4) t.constant_folding = false;
    if (off_bit == 5) t.projection_pruning = false;
    auto r = db_.Query(sql, options);
    ASSERT_TRUE(r.ok()) << "toggle " << off_bit << ": "
                        << r.status().ToString();
    EXPECT_TRUE(Table::BagEquals(reference, r->table)) << "toggle " << off_bit;
  }
}

TEST_F(PipelineTest, EmstOptionCombinationsAreCorrect) {
  const char* sql =
      "SELECT d.deptname, v.avg_sal FROM department d, avgSal v "
      "WHERE v.dept <= d.deptno AND d.deptname = 'Ops'";
  Table reference = Reference(sql);
  for (bool supplementary : {false, true}) {
    for (bool conditions : {false, true}) {
      for (bool sips : {false, true}) {
        for (bool compare : {false, true}) {
          QueryOptions options(ExecutionStrategy::kMagic);
          options.pipeline.emst.use_supplementary = supplementary;
          options.pipeline.emst.push_conditions = conditions;
          options.pipeline.try_sips_order = sips;
          options.pipeline.cost_compare = compare;
          auto r = db_.Query(sql, options);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_TRUE(Table::BagEquals(reference, r->table))
              << "supp=" << supplementary << " cond=" << conditions
              << " sips=" << sips << " compare=" << compare;
        }
      }
    }
  }
}

TEST_F(PipelineTest, SnapshotsOnlyWhenRequested) {
  const char* sql = "SELECT v.avg_sal FROM avgSal v WHERE v.dept = 1";
  auto without = db_.Explain(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(without->snapshots.empty());
  QueryOptions with_snapshots(ExecutionStrategy::kMagic);
  with_snapshots.pipeline.capture_snapshots = true;
  auto with = db_.Explain(sql, with_snapshots);
  ASSERT_TRUE(with.ok());
  EXPECT_GE(with->snapshots.size(), 3u);  // initial, phase1, phase2, phase3
}

TEST_F(PipelineTest, RewriteApplicationsAreCounted) {
  const char* sql =
      "SELECT d.deptname, v.avg_sal FROM department d, avgSal v "
      "WHERE d.deptno = v.dept AND d.deptname = 'Planning'";
  auto r = db_.Explain(sql, QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rewrite_applications, 0);
}

TEST_F(PipelineTest, ChosenGraphAlwaysValidates) {
  const char* queries[] = {
      "SELECT v.dept FROM avgSal v",
      "SELECT d.deptname FROM department d WHERE EXISTS "
      "(SELECT e.empno FROM employee e WHERE e.workdept = d.deptno)",
      "SELECT e.empno FROM employee e, department d, avgSal v "
      "WHERE e.workdept = d.deptno AND d.deptno = v.dept AND v.n > 1",
  };
  for (const char* sql : queries) {
    for (ExecutionStrategy s :
         {ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
          ExecutionStrategy::kMagic}) {
      auto r = db_.Explain(sql, QueryOptions(s));
      ASSERT_TRUE(r.ok()) << sql;
      EXPECT_TRUE(r->graph->Validate().ok()) << sql;
    }
  }
}

TEST_F(PipelineTest, ExplainAnalyzeReconcilesOnIndexNestedLoopPath) {
  // With a secondary index on the magic-bound join column, EXPLAIN ANALYZE
  // runs the index-nested-loop path; its per-box act_rows must still sum
  // to the executor's rows_produced exactly.
  ASSERT_TRUE(
      db_.Execute("CREATE INDEX emp_workdept ON employee (workdept)").ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const char* sql =
      "SELECT d.deptname, v.avg_sal FROM department d, avgSal v "
      "WHERE d.deptno = v.dept AND d.deptname = 'Planning'";
  auto result =
      db_.Query(std::string("EXPLAIN ANALYZE ") + sql,
                QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->exec_stats.index_probes, 0)
      << "index path not taken:\n" << result->analyze_report;

  ASSERT_FALSE(result->box_stats.empty());
  int64_t rows_out = 0;
  for (const auto& [box_id, stats] : result->box_stats) {
    rows_out += stats.rows_out;
  }
  EXPECT_EQ(rows_out, result->exec_stats.rows_produced);
  EXPECT_EQ(result->result_rows, 1);
  EXPECT_NE(result->analyze_report.find("act_rows="), std::string::npos);
}

// True when the sips-order EMST candidate ran: its phases add "-sips" rows
// (one per rule, fired or not) to the fire table.
bool RanSipsCandidate(const PipelineResult& result) {
  for (const RuleFireStats& f : result.rule_fires) {
    if (f.phase == "phase2-sips" || f.phase == "phase3-sips") return true;
  }
  return false;
}

TEST_F(PipelineTest, SipsCandidateSkippedWhenNoJoinOrderChanges) {
  // One table: no box has two quantifiers to reorder.
  // department x avgSal restricted on department: the optimizer already
  // orders the restricting department quantifier before the view.
  for (const char* sql :
       {"SELECT empname FROM employee WHERE empno = 100",
        "SELECT d.deptname, v.avg_sal FROM department d, avgSal v "
        "WHERE d.deptno = v.dept AND d.deptname = 'Planning'"}) {
    auto result = db_.Explain(sql, QueryOptions(ExecutionStrategy::kMagic));
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_TRUE(result->emst_applied) << sql;
    EXPECT_FALSE(RanSipsCandidate(*result))
        << sql << "\n" << RuleFireTable(result->rule_fires, true);
    bool ran_phase2 = false;
    for (const RuleFireStats& f : result->rule_fires) {
      ran_phase2 = ran_phase2 || f.phase == "phase2";
    }
    EXPECT_TRUE(ran_phase2) << sql;
  }
}

TEST(SipsOrderTest, ViewFirstOrderStillRunsAndPicksTheSipsCandidate) {
  // bench_ablation's "sips_order" section (Exp C shape, full scale): the
  // optimizer joins deptActivity before the probe table, so EMST at the
  // optimizer's order has nothing to bind; the sips order puts the probe
  // first, binds the view through a magic box and wins the comparison
  // between the two EMST candidates.
  Database db;
  bench::EmpDeptConfig config;
  config.num_departments = 200;
  config.num_employees = 10000;
  config.num_projects = 2000;
  ASSERT_TRUE(bench::LoadEmpDept(&db, config).ok());
  ASSERT_TRUE(bench::LoadProbe(&db, "probe", 1000, 25, 9).ok());
  ASSERT_TRUE(bench::CreateBenchViews(&db).ok());
  const char* sql =
      "SELECT p.tag, a.spend FROM probe p, deptActivity a "
      "WHERE p.pdept = a.dept";
  QueryOptions options(ExecutionStrategy::kMagic);
  options.pipeline.cost_compare = false;
  auto with_sips = db.Explain(sql, options);
  ASSERT_TRUE(with_sips.ok()) << with_sips.status().ToString();
  EXPECT_TRUE(RanSipsCandidate(*with_sips));
  options.pipeline.try_sips_order = false;
  auto without_sips = db.Explain(sql, options);
  ASSERT_TRUE(without_sips.ok()) << without_sips.status().ToString();
  EXPECT_FALSE(RanSipsCandidate(*without_sips));

  EXPECT_LT(with_sips->cost_with_emst, without_sips->cost_with_emst);
  EXPECT_NE(PrintGraph(*with_sips->graph), PrintGraph(*without_sips->graph));
  // Only the sips candidate binds the view: its plan keeps a magic box.
  auto magic_boxes = [](const QueryGraph& g) {
    int n = 0;
    for (const Box* b : g.boxes()) n += b->IsMagicRole() ? 1 : 0;
    return n;
  };
  EXPECT_GT(magic_boxes(*with_sips->graph), 0) << PrintGraph(*with_sips->graph);
  EXPECT_EQ(magic_boxes(*without_sips->graph), 0);
}

}  // namespace
}  // namespace starmagic
