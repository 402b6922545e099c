// Reproduces the claim of Figure 1 / Example 1.1: the magic transformation
// makes the query graph *more complex* (more boxes, more joins) and yet
// the transformed query executes orders of magnitude faster (the paper
// reports two and a half orders of magnitude for Experiment G).
//
// We report, for the paper's query D:
//   * box/quantifier counts of the executed graph per strategy,
//   * execution wall time and deterministic work counters,
//   * the Original/EMST ratio.

#include <cstdio>

#include "bench_json.h"
#include "qgm/printer.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

int Run() {
  BenchObs obs("figure1");
  Database db;
  EmpDeptConfig config;  // defaults: 2000 departments, 50000 employees
  BenchJson report("figure1", BenchObs::Smoke() ? 500 : 50000);
  if (BenchObs::Smoke()) {
    config.num_departments = 50;
    config.num_employees = 500;
    config.num_projects = 100;
  }
  if (Status s = LoadEmpDept(&db, config); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = CreatePaperViews(&db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Index every access path the paper's DB2 setup assumes — including
  // deptname, so the bound restriction enters through a point probe. The
  // magic plan turns all of its accesses into such probes; the original
  // plan still has to materialize the whole view.
  for (const char* ddl :
       {"CREATE INDEX emp_workdept ON employee (workdept)",
        "CREATE INDEX emp_empno ON employee (empno)",
        "CREATE INDEX dept_deptno ON department (deptno)",
        "CREATE INDEX dept_deptname ON department (deptname)",
        "CREATE INDEX dept_mgrno ON department (mgrno)"}) {
    if (Status s = db.Execute(ddl); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  const char* query_d =
      "SELECT d.deptname, s.workdept, s.avgsalary "
      "FROM department d, avgMgrSal s "
      "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

  std::printf("Figure 1: query D, %lld employees / %lld departments\n\n",
              static_cast<long long>(config.num_employees),
              static_cast<long long>(config.num_departments));
  std::printf("%-11s %8s %12s %12s %10s %s\n", "strategy", "boxes",
              "time(ms)", "work", "rows", "graph-complexity");

  double original_ms = 0;
  double emst_ms = 0;
  int64_t original_work = 0;
  int64_t emst_work = 0;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
        ExecutionStrategy::kMagic}) {
    QueryOptions options = obs.Options(strategy);
    auto shape = db.Explain(query_d, options);  // box counts only
    auto m = MeasureQuery(&db, query_d, options, 3);
    if (!shape.ok() || !m.ok()) {
      std::fprintf(stderr, "%s %s\n", shape.status().ToString().c_str(),
                   m.status().ToString().c_str());
      return 1;
    }
    const double best_ms = m->exec_ms;
    const int64_t work = m->work();
    const int64_t rows = m->rows();
    std::printf("%-11s %8d %12.3f %12lld %10lld %s\n", StrategyName(strategy),
                shape->graph->NumBoxes(), best_ms,
                static_cast<long long>(work), static_cast<long long>(rows),
                GraphComplexity(*shape->graph).c_str());
    report.Add({"queryD", StrategyName(strategy), work, best_ms, rows});
    if (strategy == ExecutionStrategy::kOriginal) {
      original_ms = best_ms;
      original_work = work;
    }
    if (strategy == ExecutionStrategy::kMagic) {
      emst_ms = best_ms;
      emst_work = work;
    }
  }

  double time_ratio = emst_ms > 0 ? original_ms / emst_ms : 0;
  double work_ratio =
      emst_work > 0 ? static_cast<double>(original_work) / emst_work : 0;
  std::printf(
      "\nOriginal/EMST speedup: %.1fx wall time, %.1fx work "
      "(paper: ~300x on DB2)\n",
      time_ratio, work_ratio);
  bool pass = work_ratio >= 10.0;
  std::printf("claim (>= 1 order of magnitude): %s\n",
              pass ? "REPRODUCED" : "NOT REPRODUCED");
  return obs.Verdict(pass);
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }
