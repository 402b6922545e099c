// System-table cost: what does scanning a sys.* introspection table cost?
// Scanning one materializes its rows from live engine state at scan
// start. Measured against a base-table scan of the exact same row count
// and shape (informational: snapshots are small by construction, but the
// ratio belongs in the record). Rows must match between the two sides.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "common/string_util.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

int Run() {
  BenchObs obs("systables");
  const bool smoke = BenchObs::Smoke();
  const int reps = smoke ? 5 : 7;

  // --- data: a populated catalog (the scan and join shapes of the smoke
  // workloads), widened so the sys.columns snapshot has enough rows to
  // time. -------------------------------------------------------------------
  const int64_t scan_rows = smoke ? 20'000 : 500'000;
  Database db;
  Status s = db.ExecuteScript("CREATE TABLE nums (v INTEGER, w INTEGER)");
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  {
    Rng rng(7);
    Table* nums = db.catalog()->GetTable("nums");
    for (int64_t i = 0; i < scan_rows; ++i) {
      nums->AppendUnchecked(
          Row{Value::Int(i), Value::Int(rng.Uniform(1'000'000))});
    }
  }
  EmpDeptConfig emp_config;
  if (smoke) {
    emp_config.num_departments = 200;
    emp_config.num_employees = 5'000;
    emp_config.num_projects = 500;
  }
  const int64_t probe_rows = smoke ? 10'000 : 200'000;
  const int extra_tables = smoke ? 20 : 100;
  if (Status st = LoadEmpDept(&db, emp_config); !st.ok() ||
      !(st = LoadProbe(&db, "probe", probe_rows,
                       emp_config.num_departments / 2, 99))
           .ok() ||
      !(st = db.Execute("ANALYZE")).ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Widen the catalog: each table adds 8 sys.columns rows.
  for (int i = 0; i < extra_tables; ++i) {
    if (Status st = db.Execute(StrCat(
            "CREATE TABLE wide_", i,
            " (c0 INTEGER, c1 INTEGER, c2 VARCHAR, c3 DOUBLE, c4 INTEGER, "
            "c5 VARCHAR, c6 DOUBLE, c7 INTEGER)"));
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  BenchJson report("systables", scan_rows);
  std::printf("System-table cost (%d reps)\n\n", reps);

  // --- snapshot scan vs equal-row base-table scan --------------------------
  // Mirror sys.columns into a stored table of identical shape and row
  // count, then time full scans of both.
  {
    // Create the mirror table BEFORE snapshotting sys.columns, so the
    // snapshot covers the mirror's own columns and the row counts match.
    if (Status st = db.Execute(
            "CREATE TABLE stored_columns (table_name VARCHAR, "
            "ordinal INTEGER, name VARCHAR, type VARCHAR)");
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    QueryOptions internal;
    internal.internal = true;
    auto cols = db.Query("SELECT * FROM sys.columns", internal);
    if (!cols.ok()) {
      std::fprintf(stderr, "%s\n", cols.status().ToString().c_str());
      return 1;
    }
    Table* stored = db.catalog()->GetTable("stored_columns");
    for (const Row& row : cols->table.rows()) stored->AppendUnchecked(row);

    // Full Query() executions (parse → optimize → snapshot → execute),
    // the path a sys scan actually takes, so the wall time is compared.
    QueryOptions options = obs.Options();
    auto base =
        MeasureQuery(&db, "SELECT * FROM stored_columns", options, reps);
    auto snap = MeasureQuery(&db, "SELECT * FROM sys.columns", options, reps);
    if (!base.ok() || !snap.ok()) {
      std::fprintf(stderr, "%s %s\n", base.status().ToString().c_str(),
                   snap.status().ToString().c_str());
      return 1;
    }
    std::printf("%-16s %-14s %10s %12s %10s\n", "workload", "strategy",
                "time(ms)", "work", "rows");
    for (bool sys_side : {false, true}) {
      const Measured& m = sys_side ? *snap : *base;
      const char* strategy = sys_side ? "sys=snapshot" : "sys=base";
      std::printf("%-16s %-14s %10.3f %12lld %10lld\n", "snapshot_scan",
                  strategy, m.wall_ms, static_cast<long long>(m.work()),
                  static_cast<long long>(m.rows()));
      report.Add({"snapshot_scan", strategy, m.work(), m.wall_ms, m.rows()});
    }
    if (snap->rows() != base->rows()) {
      std::fprintf(stderr, "FAIL snapshot_scan: %lld snapshot rows vs %lld "
                           "stored rows\n",
                   static_cast<long long>(snap->rows()),
                   static_cast<long long>(base->rows()));
      return 1;
    }
    std::printf("snapshot materialization cost: %.2fx the equal-row base "
                "scan (informational)\n\n",
                base->wall_ms > 0 ? snap->wall_ms / base->wall_ms : 0);
  }

  if (Status st = report.Write(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }
