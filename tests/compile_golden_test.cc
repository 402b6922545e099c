// Compile identity: the chosen plan and the §3.2 outcome of a fixed query
// set, compared byte for byte against tests/golden/compile_identity.txt.
//
// Compile-time optimizations (skipping work whose result is known, caching
// parsed views, cheaper rule dispatch) must not change a single plan or
// cost. This test pins, per query and strategy, the PrintGraph of the
// chosen graph, C1, C2 (printed to 17 significant digits) and the
// emst_applied / emst_chosen flags. The query set is the Table-1 A–H
// shapes plus one query per adhoc_lookups read template.
//
// A deliberate plan change regenerates the file:
//   STARMAGIC_UPDATE_GOLDEN=1 ./build/tests/compile_golden_test

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "engine/database.h"
#include "qgm/printer.h"
#include "workloads.h"

namespace starmagic {
namespace {

constexpr const char* kGoldenPath = STARMAGIC_GOLDEN_DIR "/compile_identity.txt";

struct NamedQuery {
  const char* name;
  const char* sql;
};

// Table 1 (bench_table1) experiments A–H.
const NamedQuery kTable1[] = {
    {"A", "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
          "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"},
    {"B", "SELECT p.tag, s.avgsalary FROM probe_b p, avgDeptSal s "
          "WHERE p.pdept = s.workdept"},
    {"C", "SELECT p.tag, a.spend FROM probe_c p, deptActivity a "
          "WHERE p.pdept = a.dept"},
    {"D", "SELECT p.tag, t.spend FROM probe_d p, bigDeptActivity t "
          "WHERE p.pdept = t.dept"},
    {"E", "SELECT p.tag, s.avgsalary, a.spend "
          "FROM probe_e p, avgDeptSal s, deptActivity a "
          "WHERE p.pdept = s.workdept AND p.pdept = a.dept"},
    {"F", "SELECT p.tag, s.avgsalary FROM probe_f p, avgDeptSal s "
          "WHERE p.pdept = s.workdept"},
    {"G", "SELECT d.deptname, s.workdept, s.avgsalary "
          "FROM department d, avgMgrSal s "
          "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"},
    {"H", "SELECT d.deptname, a.spend FROM department d, deptActivity a "
          "WHERE a.dept <= d.deptno AND d.deptname = 'Planning'"},
};

// One query per read template of perfbench's adhoc_lookups workload.
const NamedQuery kAdhoc[] = {
    {"A_dept_avg",
     "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
     "WHERE d.deptno = s.workdept AND d.deptname = 'Dept3' "
     "AND s.avgsalary > 60000"},
    {"F_probe_avg",
     "SELECT p.tag, s.avgsalary FROM probe_f p, avgDeptSal s "
     "WHERE p.pdept = s.workdept AND p.tag = 0 AND s.avgsalary < 60000"},
    {"G_mgr_avg",
     "SELECT d.deptname, s.workdept, s.avgsalary FROM department d, "
     "avgMgrSal s WHERE d.deptno = s.workdept AND d.deptname = 'Dept3' "
     "AND s.avgsalary > 60000"},
    {"L_emp_by_id",
     "SELECT empname, workdept, salary FROM employee WHERE empno = 42"},
    {"L_emp_dept",
     "SELECT e.empname, d.deptname FROM employee e, department d "
     "WHERE e.workdept = d.deptno AND e.empno = 42"},
    {"L_proj_budget",
     "SELECT projno, budget FROM project WHERE deptno = 3 "
     "AND budget > 200000"},
};

struct Mode {
  const char* name;
  ExecutionStrategy strategy;
  bool cost_compare;
};

// kMagic without the cost comparison keeps the EMST candidate even when C1
// wins, so the choice between the optimizer-order and sips-order EMST
// plans shows in the output for every query (bench_ablation's setting).
const Mode kModes[] = {
    {"Original", ExecutionStrategy::kOriginal, true},
    {"Correlated", ExecutionStrategy::kCorrelated, true},
    {"EMST", ExecutionStrategy::kMagic, true},
    {"EMST-nocompare", ExecutionStrategy::kMagic, false},
};

// The Table-1 corpus at scale 25 (bench_table1 --scale=25).
Status LoadCorpus(Database* db) {
  bench::EmpDeptConfig config;
  config.num_departments = 100;
  config.num_employees = 5000;
  config.num_projects = 1000;
  SM_RETURN_IF_ERROR(bench::LoadEmpDept(db, config));
  SM_RETURN_IF_ERROR(bench::LoadProbe(db, "probe_b", 50, 8, 101));
  SM_RETURN_IF_ERROR(bench::LoadProbe(db, "probe_c", 500, 40, 102));
  SM_RETURN_IF_ERROR(bench::LoadProbe(db, "probe_d", 2000, 60, 103));
  SM_RETURN_IF_ERROR(bench::LoadProbe(db, "probe_e", 125, 40, 105));
  SM_RETURN_IF_ERROR(bench::LoadProbe(db, "probe_f", 1, 4, 104));
  SM_RETURN_IF_ERROR(bench::CreateBenchViews(db));
  SM_RETURN_IF_ERROR(db->ExecuteScript(R"sql(
    CREATE INDEX emp_workdept ON employee (workdept);
    CREATE INDEX emp_empno ON employee (empno);
    CREATE INDEX dept_deptno ON department (deptno);
    CREATE INDEX dept_deptname ON department (deptname);
    CREATE INDEX dept_mgrno ON department (mgrno);
    CREATE INDEX proj_deptno ON project (deptno);
    CREATE INDEX probe_f_tag ON probe_f (tag);
  )sql"));
  return db->AnalyzeAll();
}

std::string Render(Database* db, const NamedQuery& query, const Mode& mode) {
  QueryOptions options(mode.strategy);
  options.pipeline.cost_compare = mode.cost_compare;
  auto result = db->Explain(query.sql, options);
  if (!result.ok()) {
    return StrCat("== ", query.name, " / ", mode.name, "\nerror: ",
                  result.status().ToString(), "\n");
  }
  char costs[160];
  std::snprintf(costs, sizeof(costs),
                "C1=%.17g C2=%.17g emst_applied=%d emst_chosen=%d\n",
                result->cost_no_emst, result->cost_with_emst,
                result->emst_applied ? 1 : 0, result->emst_chosen ? 1 : 0);
  return StrCat("== ", query.name, " / ", mode.name, "\n", costs,
                PrintGraph(*result->graph));
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(CompileGoldenTest, PlansAndCostsMatchTheGoldenFile) {
  Database db;
  ASSERT_TRUE(LoadCorpus(&db).ok());
  std::string actual;
  for (const NamedQuery& q : kTable1) {
    for (const Mode& m : kModes) actual += Render(&db, q, m);
  }
  for (const NamedQuery& q : kAdhoc) {
    for (const Mode& m : kModes) actual += Render(&db, q, m);
  }

  if (std::getenv("STARMAGIC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  std::vector<std::string> want = SplitLines(golden.str());
  std::vector<std::string> got = SplitLines(actual);
  std::string section;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : "<end of file>";
    const std::string& g = i < got.size() ? got[i] : "<end of output>";
    if (g.rfind("== ", 0) == 0) section = g;
    if (w != g) {
      FAIL() << "compile output differs from " << kGoldenPath << " at line "
             << i + 1 << " (" << section << ")\n  golden: " << w
             << "\n  actual: " << g;
    }
  }
  FAIL() << "compile output differs from " << kGoldenPath;
}

}  // namespace
}  // namespace starmagic
