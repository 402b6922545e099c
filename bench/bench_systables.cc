// System-table cost: what does the sys.* introspection schema cost the
// queries that use it, and — more importantly — the queries that don't?
//
//   1. Snapshot cost — scanning a sys.* table materializes its rows from
//      live engine state at scan start. Measured against a base-table scan
//      of the exact same row count and shape (informational: snapshots are
//      small by construction, but the ratio belongs in the record).
//   2. Registry overhead — a database with the registry attached but never
//      queried must run the PR-3 smoke workloads at parity with one where
//      it is detached entirely. The gate: registry-attached wall time
//      within 1% of detached (min over interleaved reps; forgiven in smoke
//      mode, where runs are too short to measure 1% of anything, and
//      skipped above hardware concurrency — oversubscribed workers measure
//      the scheduler, not the registry).
//
// Determinism is gated at every scale, smoke included: work counters and
// rows must be bit-identical with the registry attached and detached.
//
// STARMAGIC_THREADS=n replaces the 4-thread run with an n-thread run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/string_util.h"
#include "sys/system_tables.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

struct Measured {
  double ms = 0;
  int64_t work = 0;
  int64_t rows = 0;
};

/// One full Query() execution (parse → optimize → snapshot → execute), the
/// path a sys scan actually takes.
Result<Measured> MeasureOnce(Database* db, const std::string& sql,
                             int threads, Tracer* tracer) {
  QueryOptions options;
  options.num_threads = threads;
  options.tracer = tracer;
  auto start = std::chrono::steady_clock::now();
  SM_ASSIGN_OR_RETURN(QueryResult r, db->Query(sql, options));
  auto end = std::chrono::steady_clock::now();
  Measured m;
  m.ms = std::chrono::duration_cast<std::chrono::microseconds>(end - start)
             .count() /
         1000.0;
  m.work = r.exec_stats.TotalWork();
  m.rows = r.table.num_rows();
  return m;
}

/// Min wall time over `reps` interleaved off/on pairs: `off` runs with the
/// system registry detached, `on` with it attached. Interleaving spreads
/// machine-load drift over both sides. Work and rows come from the last
/// run of each side (deterministic, so any run's values are THE values).
Status MeasurePair(Database* db, const std::string& sql, int threads,
                   int reps, Tracer* tracer, Measured* off, Measured* on) {
  const SystemTableRegistry* registry = db->system_tables();
  for (int r = 0; r < reps; ++r) {
    for (bool attached : {false, true}) {
      db->catalog()->AttachSystemRegistry(attached ? registry : nullptr);
      Result<Measured> m = MeasureOnce(db, sql, threads, tracer);
      db->catalog()->AttachSystemRegistry(registry);
      SM_RETURN_IF_ERROR(m.status());
      Measured* best = attached ? on : off;
      if (r == 0 || m->ms < best->ms) best->ms = m->ms;
      best->work = m->work;
      best->rows = m->rows;
    }
  }
  return Status::OK();
}

int Run() {
  BenchObs obs("systables");
  const bool smoke = BenchObs::Smoke();
  const int reps = smoke ? 5 : 7;

  // --- data: the PR-3 shapes (scan + join), plus a widened catalog so the
  // sys.columns snapshot has enough rows to time. -------------------------
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
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("System-table cost (%d reps, %u hardware threads)\n\n", reps,
              hw);

  // --- 1. snapshot scan vs equal-row base-table scan ----------------------
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

    Measured snap, base;
    for (int r = 0; r < reps; ++r) {
      for (bool sys_side : {false, true}) {
        Result<Measured> m = MeasureOnce(
            &db,
            sys_side ? "SELECT * FROM sys.columns"
                     : "SELECT * FROM stored_columns",
            1, obs.tracer());
        if (!m.ok()) {
          std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
          return 1;
        }
        Measured* best = sys_side ? &snap : &base;
        if (r == 0 || m->ms < best->ms) best->ms = m->ms;
        best->work = m->work;
        best->rows = m->rows;
      }
    }
    std::printf("%-16s %-14s %10s %12s %10s\n", "workload", "strategy",
                "time(ms)", "work", "rows");
    for (bool sys_side : {false, true}) {
      const Measured& m = sys_side ? snap : base;
      std::printf("%-16s %-14s %10.3f %12lld %10lld\n", "snapshot_scan",
                  sys_side ? "sys=snapshot" : "sys=base", m.ms,
                  static_cast<long long>(m.work),
                  static_cast<long long>(m.rows));
      BenchSample sample;
      sample.workload = "snapshot_scan";
      sample.strategy = sys_side ? "sys=snapshot" : "sys=base";
      sample.total_work = m.work;
      sample.wall_ms = m.ms;
      sample.rows = m.rows;
      report.Add(std::move(sample));
    }
    if (snap.rows != base.rows) {
      std::fprintf(stderr, "FAIL snapshot_scan: %lld snapshot rows vs %lld "
                           "stored rows\n",
                   static_cast<long long>(snap.rows),
                   static_cast<long long>(base.rows));
      return 1;
    }
    std::printf("snapshot materialization cost: %.2fx the equal-row base "
                "scan (informational)\n\n",
                base.ms > 0 ? snap.ms / base.ms : 0);
  }

  // --- 2. registry-attached-but-unqueried overhead (<1% gate) -------------
  struct Workload {
    std::string name;
    std::string sql;
  };
  std::vector<Workload> workloads = {
      {"scan_filter", "SELECT v FROM nums WHERE w > 500000 AND v + w > 600000"},
      {"hash_join",
       "SELECT e.empno, p.tag FROM employee e, probe p "
       "WHERE e.workdept = p.pdept AND e.salary > 30000"},
  };
  int par_threads = 4;
  if (const char* env = std::getenv("STARMAGIC_THREADS");
      env != nullptr && std::atoi(env) > 1) {
    par_threads = std::atoi(env);
  }
  const std::vector<int> ladder = {1, par_threads};

  std::printf("%-16s %-8s %-14s %10s %12s %10s %10s\n", "workload", "threads",
              "strategy", "time(ms)", "work", "rows", "overhead");
  bool deterministic = true;
  bool overhead_ok = true;
  for (const Workload& w : workloads) {
    for (int threads : ladder) {
      Measured off, on;
      if (Status st = MeasurePair(&db, w.sql, threads, reps, obs.tracer(),
                                  &off, &on);
          !st.ok()) {
        std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      if (on.work != off.work || on.rows != off.rows) {
        std::fprintf(stderr,
                     "FAIL %s at %d threads: attached work %lld vs %lld, "
                     "rows %lld vs %lld\n",
                     w.name.c_str(), threads, static_cast<long long>(on.work),
                     static_cast<long long>(off.work),
                     static_cast<long long>(on.rows),
                     static_cast<long long>(off.rows));
        deterministic = false;
      }
      double overhead = off.ms > 0 ? (on.ms - off.ms) / off.ms : 0;
      const bool gated = threads == 1 || hw >= static_cast<unsigned>(threads);
      if (gated && overhead > 0.01) overhead_ok = false;
      // Per-thread-count workload names so bench_report.py pairs the
      // off/on strategies within each cell.
      std::string cell = StrCat(w.name, "_t", threads);
      for (bool attached : {false, true}) {
        const Measured& m = attached ? on : off;
        std::printf("%-16s %-8d %-14s %10.2f %12lld %10lld %8.2f%%%s\n",
                    cell.c_str(), threads,
                    attached ? "registry=on" : "registry=off", m.ms,
                    static_cast<long long>(m.work),
                    static_cast<long long>(m.rows),
                    attached ? overhead * 100 : 0.0,
                    attached && !gated ? " (ungated: oversubscribed)" : "");
        BenchSample sample;
        sample.workload = cell;
        sample.strategy = attached ? "registry=on" : "registry=off";
        sample.total_work = m.work;
        sample.wall_ms = m.ms;
        sample.rows = m.rows;
        report.Add(std::move(sample));
      }
    }
    std::printf("\n");
  }

  if (!deterministic) return 1;
  if (Status st = report.Write(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("claim: unqueried registry overhead < 1%%: %s%s\n",
              overhead_ok ? "PASS" : "FAIL",
              smoke ? " (informational in smoke)" : "");
  return obs.Verdict(overhead_ok);
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }
