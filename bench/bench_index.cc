// Secondary-index bench: Table-1-style bound workloads executed three
// ways — EMST with declared indexes, EMST forced to scans, and no EMST —
// reporting wall time and deterministic TotalWork per combination. The
// interesting comparison is EMST+index vs EMST+scan: the magic boxes are
// what turn indexes into point probes.
//
// Emits BENCH_index.json in the unified bench schema (see bench_json.h);
// validate/diff it with scripts/bench_report.py.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

struct Mode {
  const char* name;
  ExecutionStrategy strategy;
  bool use_indexes;
};

// Best of three runs of `sql` under `mode`.
Result<BenchSample> MeasureMode(Database* db, const std::string& sql,
                                const Mode& mode, BenchObs* obs) {
  QueryOptions options = obs->Options(mode.strategy);
  if (mode.use_indexes) {
    SM_ASSIGN_OR_RETURN(Measured m, MeasureQuery(db, sql, options, 3));
    return BenchSample{"", mode.name, m.work(), m.exec_ms, m.rows()};
  }
  // The forced-scan side keeps its own Executor: use_secondary_indexes is a
  // reference switch that QueryOptions deliberately does not expose.
  SM_ASSIGN_OR_RETURN(PipelineResult pipeline, db->Explain(sql, options));
  ExecOptions exec_options;
  exec_options.use_secondary_indexes = false;
  exec_options.tracer = options.tracer;
  BenchSample sample{"", mode.name};
  for (int i = 0; i < 3; ++i) {
    Executor executor(pipeline.graph.get(), db->catalog(), exec_options);
    auto start = std::chrono::steady_clock::now();
    SM_ASSIGN_OR_RETURN(Table table, executor.Run());
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (i == 0 || ms < sample.wall_ms) sample.wall_ms = ms;
    sample.total_work = executor.stats().TotalWork();
    sample.rows = table.num_rows();
  }
  return sample;
}

int Run() {
  BenchObs obs("index");
  BenchJson report("index", BenchObs::Smoke() ? 400 : 20000);
  Database db;
  auto check = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  EmpDeptConfig config;
  config.num_departments = 400;
  config.num_employees = 20000;
  config.num_projects = 4000;
  if (BenchObs::Smoke()) {
    config.num_departments = 40;
    config.num_employees = 400;
    config.num_projects = 80;
  }
  check(LoadEmpDept(&db, config));
  check(LoadProbe(&db, "probe_b", BenchObs::Smoke() ? 40 : 200, 8, 101));
  check(LoadProbe(&db, "probe_c", BenchObs::Smoke() ? 100 : 2000, 40, 102));
  check(CreateBenchViews(&db));
  check(db.Execute("CREATE INDEX emp_workdept ON employee (workdept)"));
  check(db.Execute("CREATE INDEX emp_empno ON employee (empno)"));
  check(db.Execute(
      "CREATE INDEX dept_deptno ON department (deptno) USING ORDERED"));
  check(db.Execute("CREATE INDEX proj_deptno ON project (deptno)"));
  check(db.AnalyzeAll());

  struct Workload {
    const char* name;
    std::string sql;
  };
  std::vector<Workload> workloads = {
      {"expB_small_probe_aggregate_view",
       "SELECT p.tag, s.avgsalary FROM probe_b p, avgDeptSal s "
       "WHERE p.pdept = s.workdept"},
      {"expC_large_probe_join_view",
       "SELECT p.tag, a.spend FROM probe_c p, deptActivity a "
       "WHERE p.pdept = a.dept"},
      {"expG_point_restricted_view",
       "SELECT d.deptname, s.workdept, s.avgsalary "
       "FROM department d, avgMgrSal s "
       "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"},
      {"expH_range_condition_magic",
       "SELECT d.deptname, a.spend FROM department d, deptActivity a "
       "WHERE a.dept <= d.deptno AND d.deptname = 'Planning'"},
  };

  const Mode modes[] = {
      {"emst+index", ExecutionStrategy::kMagic, true},
      {"emst+scan", ExecutionStrategy::kMagic, false},
      {"no-emst", ExecutionStrategy::kOriginal, true},
  };

  std::printf("%-34s %-12s %14s %12s %8s\n", "workload", "strategy",
              "TotalWork", "wall(ms)", "rows");
  for (const Workload& w : workloads) {
    int64_t base_rows = -1;
    for (const Mode& m : modes) {
      Result<BenchSample> sample = MeasureMode(&db, w.sql, m, &obs);
      if (!sample.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", w.name, m.name,
                     sample.status().ToString().c_str());
        return 1;
      }
      sample->workload = w.name;
      std::printf("%-34s %-12s %14lld %12.3f %8lld\n", w.name, m.name,
                  static_cast<long long>(sample->total_work), sample->wall_ms,
                  static_cast<long long>(sample->rows));
      if (base_rows < 0) base_rows = sample->rows;
      if (sample->rows != base_rows) {
        std::fprintf(stderr, "%s: row count diverged across modes\n", w.name);
        return 1;
      }
      report.Add(std::move(*sample));
    }
  }
  Status written = report.Write();
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }
