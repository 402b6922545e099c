// Reproduces Table 1 of the paper: elapsed time of eight experiments
// (A–H) under the three strategies, normalized so Original = 100.00.
//
// Paper reference values (Original / Correlated / EMST):
//   A: 100 /    0.40 /   0.47      E: 100 /   52.56 /   7.62
//   B: 100 /    2.12 /   0.28      F: 100 /    0.54 /   0.84
//   C: 100 /  513.27 /  50.24      G: 100 /    2.41 /   0.49
//   D: 100 / 5136.49 / 109.00      H: 100 /   19.91 /   4.46
//
// Absolute ratios depend on the substrate (we run an in-memory engine with
// hash indexes instead of DB2 on disk); the *shape* — who wins, and where
// correlation blows up — is the reproduced claim. Work counters (rows
// scanned/produced/probed) are printed as machine-independent evidence.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

struct Experiment {
  const char* id;
  const char* description;
  std::string sql;
  double paper_correlated;
  double paper_emst;
};

int RunAll(int64_t scale) {
  BenchObs obs("table1");
  BenchJson report("table1", scale);
  EmpDeptConfig config;
  config.num_departments = 400 * scale / 100;
  config.num_employees = 20000 * scale / 100;
  config.num_projects = 4000 * scale / 100;

  Database db;
  auto check = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  check(LoadEmpDept(&db, config));
  check(LoadProbe(&db, "probe_b", 200 * scale / 100, 8, 101));
  check(LoadProbe(&db, "probe_c", 2000 * scale / 100, 40, 102));
  check(LoadProbe(&db, "probe_d", 8000 * scale / 100, 60, 103));
  check(LoadProbe(&db, "probe_e", 500 * scale / 100, 40, 105));
  check(LoadProbe(&db, "probe_f", 1, 4, 104));
  check(CreateBenchViews(&db));
  // Secondary indexes on the base-table join columns, as the paper's DB2
  // setup assumes: magic boxes drive point probes into these.
  check(db.Execute("CREATE INDEX emp_workdept ON employee (workdept)"));
  check(db.Execute("CREATE INDEX emp_empno ON employee (empno)"));
  check(db.Execute("CREATE INDEX dept_deptno ON department (deptno)"));
  check(db.Execute("CREATE INDEX dept_deptname ON department (deptname)"));
  check(db.Execute("CREATE INDEX dept_mgrno ON department (mgrno)"));
  check(db.Execute("CREATE INDEX proj_deptno ON project (deptno)"));
  check(db.AnalyzeAll());

  std::vector<Experiment> experiments = {
      {"A", "point-restricted aggregate view (one department)",
       "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
       "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
       0.40, 0.47},
      {"B", "aggregate view probed by a small duplicated outer (200 rows)",
       "SELECT p.tag, s.avgsalary FROM probe_b p, avgDeptSal s "
       "WHERE p.pdept = s.workdept",
       2.12, 0.28},
      {"C", "join-fan-out view probed by a large duplicated outer (2000 rows)",
       "SELECT p.tag, a.spend FROM probe_c p, deptActivity a "
       "WHERE p.pdept = a.dept",
       513.27, 50.24},
      {"D", "nested view probed by a very large duplicated outer (8000 rows)",
       "SELECT p.tag, t.spend FROM probe_d p, bigDeptActivity t "
       "WHERE p.pdept = t.dept",
       5136.49, 109.00},
      {"E", "two aggregate views probed by a duplicated outer (500 rows)",
       "SELECT p.tag, s.avgsalary, a.spend "
       "FROM probe_e p, avgDeptSal s, deptActivity a "
       "WHERE p.pdept = s.workdept AND p.pdept = a.dept",
       52.56, 7.62},
      {"F", "single-row outer probing a cheap aggregate view",
       "SELECT p.tag, s.avgsalary FROM probe_f p, avgDeptSal s "
       "WHERE p.pdept = s.workdept",
       0.54, 0.84},
      {"G", "the paper's query D (avg salary of managers in 'Planning')",
       "SELECT d.deptname, s.workdept, s.avgsalary "
       "FROM department d, avgMgrSal s "
       "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
       2.41, 0.49},
      {"H", "range (non-equality) restriction pushed via condition magic",
       "SELECT d.deptname, a.spend FROM department d, deptActivity a "
       "WHERE a.dept <= d.deptno AND d.deptname = 'Planning'",
       19.91, 4.46},
  };

  std::printf(
      "Table 1: elapsed time, Original = 100.00 (scale=%lld%%)\n"
      "%-4s %-10s %10s %10s   %-22s %-22s  %s\n",
      static_cast<long long>(scale), "Exp", "", "Correlated", "EMST",
      "paper(Corr/EMST)", "work(O/C/E)", "emst-plan-chosen");
  bool all_equal = true;
  for (const Experiment& exp : experiments) {
    // Three runs per strategy; Table 1 times execution only (exec_ms).
    auto orig = MeasureQuery(&db, exp.sql,
                             obs.Options(ExecutionStrategy::kOriginal), 3);
    auto corr = MeasureQuery(&db, exp.sql,
                             obs.Options(ExecutionStrategy::kCorrelated), 3);
    auto emst =
        MeasureQuery(&db, exp.sql, obs.Options(ExecutionStrategy::kMagic), 3);
    if (!orig.ok() || !corr.ok() || !emst.ok()) {
      std::fprintf(stderr, "Exp %s failed: %s %s %s\n", exp.id,
                   orig.status().ToString().c_str(),
                   corr.status().ToString().c_str(),
                   emst.status().ToString().c_str());
      return 1;
    }
    bool equal = Table::BagEquals(orig->last.table, corr->last.table) &&
                 Table::BagEquals(orig->last.table, emst->last.table);
    all_equal = all_equal && equal;
    report.Add({exp.id, "Original", orig->work(), orig->exec_ms, orig->rows()});
    report.Add(
        {exp.id, "Correlated", corr->work(), corr->exec_ms, corr->rows()});
    report.Add({exp.id, "EMST", emst->work(), emst->exec_ms, emst->rows()});
    double base = orig->exec_ms > 0 ? orig->exec_ms : 1e-6;
    std::printf(
        "%-4s %10.2f %10.2f %10.2f   %8.2f / %-9.2f  %lld/%lld/%lld  %s%s\n",
        exp.id, 100.0, 100.0 * corr->exec_ms / base,
        100.0 * emst->exec_ms / base, exp.paper_correlated, exp.paper_emst,
        static_cast<long long>(orig->work()),
        static_cast<long long>(corr->work()),
        static_cast<long long>(emst->work()),
        emst->last.emst_chosen ? "yes" : "NO",
        equal ? "" : "  RESULTS-DIVERGE!");
    std::printf("     -- %s [%lld result rows]\n", exp.description,
                static_cast<long long>(orig->rows()));
  }
  std::printf("result equality across strategies: %s\n",
              all_equal ? "OK" : "FAILED");
  // Result equality must hold at every scale — smoke mode does not forgive
  // it (unlike timing-ratio claims).
  return all_equal ? 0 : 1;
}

}  // namespace
}  // namespace starmagic::bench

int main(int argc, char** argv) {
  int64_t scale = starmagic::bench::BenchObs::Smoke() ? 2 : 100;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::atoll(arg.c_str() + 8);
  }
  return starmagic::bench::RunAll(scale);
}
