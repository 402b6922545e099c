// Ablations of the EMST design choices the paper calls out:
//
//   1. supplementary-magic-boxes (§4.1): sharing the join prefix between
//      the query and the magic computation vs. recomputing it,
//   2. condition pushdown / ground magic conditions (§4.1, [MFPR90b]):
//      pushing non-equality restrictions as aggregate bounds,
//   3. distinct pullup (Example 4.1): the duplicate-freeness inference
//      that lets phase 3 merge magic boxes away,
//   4. the sips-friendly join-order candidate (§2/§3.2: "the choice of the
//      join order is very important for an efficient transformation").
//
// Each section runs a query with the knob on and off and reports work and
// graph complexity.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

// One knob setting: the executed work and rows through Query(), and the
// box count of the optimized graph, which only Explain() shows.
struct Setting {
  Measured m;
  int boxes = 0;
};

Result<Setting> MeasureSetting(Database* db, const std::string& sql,
                               const PipelineOptions& pipeline_options,
                               BenchObs* obs) {
  QueryOptions options = obs->Options();
  options.pipeline = pipeline_options;
  Setting setting;
  SM_ASSIGN_OR_RETURN(PipelineResult shape, db->Explain(sql, options));
  setting.boxes = shape.graph->NumBoxes();
  SM_ASSIGN_OR_RETURN(setting.m, MeasureQuery(db, sql, options));
  return setting;
}

void PrintRow(BenchJson* report, const char* workload, const char* label,
              const Result<Setting>& on, const Result<Setting>& off) {
  if (!on.ok() || !off.ok()) {
    std::printf("%-34s FAILED: %s / %s\n", label,
                on.status().ToString().c_str(),
                off.status().ToString().c_str());
    return;
  }
  const int64_t on_work = on->m.work();
  const int64_t off_work = off->m.work();
  report->Add({workload, "on", on_work, on->m.exec_ms, on->m.rows()});
  report->Add({workload, "off", off_work, off->m.exec_ms, off->m.rows()});
  std::printf("%-34s  on: work=%-9lld boxes=%-3d   off: work=%-9lld boxes=%-3d"
              "  (off/on work = %.2fx)\n",
              label, static_cast<long long>(on_work), on->boxes,
              static_cast<long long>(off_work), off->boxes,
              on_work > 0 ? static_cast<double>(off_work) / on_work : 0.0);
}

int Run() {
  BenchObs obs("ablation");
  Database db;
  EmpDeptConfig config;
  config.num_departments = 200;
  config.num_employees = BenchObs::Smoke() ? 500 : 10000;
  config.num_projects = BenchObs::Smoke() ? 100 : 2000;
  if (Status s = LoadEmpDept(&db, config); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = LoadProbe(&db, "probe", BenchObs::Smoke() ? 100 : 1000, 25, 9);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = CreateBenchViews(&db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  PipelineOptions defaults;
  defaults.cost_compare = false;  // show the raw effect of each knob

  BenchJson report("ablation", config.num_employees);
  std::printf("EMST design-choice ablations (magic strategy forced)\n\n");

  {
    // Supplementary magic: the query's prefix is a department x project
    // join; without supplementary boxes the magic computation re-derives
    // that join instead of sharing it.
    const char* sql =
        "SELECT d.deptname, p.projname, s.avgsalary "
        "FROM department d, project p, avgDeptSal s "
        "WHERE d.deptno = p.deptno AND p.budget < 50000 "
        "AND d.deptno = s.workdept";
    PipelineOptions off = defaults;
    off.emst.use_supplementary = false;
    PrintRow(&report, "supplementary", "supplementary-magic-boxes",
             MeasureSetting(&db, sql, defaults, &obs),
             MeasureSetting(&db, sql, off, &obs));
  }
  {
    // Condition magic: the Exp H query with a range join restriction.
    const char* sql =
        "SELECT d.deptname, a.spend FROM department d, deptActivity a "
        "WHERE a.dept <= d.deptno AND d.deptname = 'Planning'";
    PipelineOptions off = defaults;
    off.emst.push_conditions = false;
    PrintRow(&report, "condition_magic", "condition magic (c adornments)",
             MeasureSetting(&db, sql, defaults, &obs),
             MeasureSetting(&db, sql, off, &obs));
  }
  {
    // Distinct pullup: without it the magic boxes keep their DISTINCT and
    // cannot be merged in phase 3 (more boxes survive).
    const char* sql =
        "SELECT d.deptname, s.workdept, s.avgsalary "
        "FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";
    PipelineOptions off = defaults;
    off.toggles.distinct_pullup = false;
    PrintRow(&report, "distinct_pullup", "distinct pullup (phase-3 merges)",
             MeasureSetting(&db, sql, defaults, &obs),
             MeasureSetting(&db, sql, off, &obs));
  }
  {
    // Join-order sensitivity: without the sips-friendly candidate the
    // optimizer's view-first order gives EMST nothing to bind.
    const char* sql =
        "SELECT p.tag, a.spend FROM probe p, deptActivity a "
        "WHERE p.pdept = a.dept";
    PipelineOptions off = defaults;
    off.try_sips_order = false;
    PrintRow(&report, "sips_order", "sips-friendly join order",
             MeasureSetting(&db, sql, defaults, &obs),
             MeasureSetting(&db, sql, off, &obs));
  }
  return 0;
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }
