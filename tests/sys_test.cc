// The sys.* virtual system-table schema: registry contents, snapshot
// semantics (per-query, self-excluding, governor-charged), read-only
// enforcement, reconciliation of every table against the live state it
// mirrors, parallel determinism, the magic-sets acceptance query over
// system tables, and the dogfooded shell renderers (byte-identical to the
// classic bespoke formatters).

#include "sys/system_tables.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "sys/sys_render.h"

namespace starmagic {
namespace {

// Runs one introspection query the way the shell's dot-commands do:
// internal (not logged, no metrics writes, unlimited enforcement) with the
// given registry attached as the read source.
Table SysQuery(Database* db, const std::string& sql,
               MetricsRegistry* metrics = nullptr) {
  QueryOptions options;
  options.internal = true;
  options.metrics = metrics;
  auto r = db->Query(sql, options);
  EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  return r.ok() ? std::move(r->table) : Table("empty", Schema());
}

int64_t IntCol(const Table& t, const Row& row, const char* name) {
  int col = t.schema().FindColumn(name);
  EXPECT_GE(col, 0) << name;
  return row[static_cast<size_t>(col)].int_value();
}

std::string StrCol(const Table& t, const Row& row, const char* name) {
  int col = t.schema().FindColumn(name);
  EXPECT_GE(col, 0) << name;
  const Value& v = row[static_cast<size_t>(col)];
  return v.kind() == ValueKind::kString ? v.string_value() : "";
}

// A small base schema so catalog-backed tables have content to mirror.
void SeedCatalog(Database* db) {
  ASSERT_TRUE(db->ExecuteScript(R"sql(
    CREATE TABLE emp (empno INTEGER, dept INTEGER, salary DOUBLE);
    INSERT INTO emp VALUES (1, 10, 100.0), (2, 10, 200.0), (3, 20, 300.0);
    CREATE TABLE dept (deptno INTEGER, name VARCHAR);
    INSERT INTO dept VALUES (10, 'eng'), (20, 'ops');
    CREATE INDEX emp_dept ON emp (dept);
    CREATE VIEW deptSal (dept, total) AS
      SELECT dept, SUM(salary) FROM emp GROUP BY dept;
    ANALYZE;
  )sql")
                  .ok());
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(SysNameTest, MatchesSysPrefixCaseInsensitively) {
  EXPECT_TRUE(IsSysTableName("sys.metrics"));
  EXPECT_TRUE(IsSysTableName("SYS.Metrics"));
  EXPECT_TRUE(IsSysTableName("Sys.x"));
  EXPECT_FALSE(IsSysTableName("sys."));       // no table part
  EXPECT_FALSE(IsSysTableName("sys"));        // no dot
  EXPECT_FALSE(IsSysTableName("system.x"));   // different schema
  EXPECT_FALSE(IsSysTableName("mysys.x"));
  EXPECT_FALSE(IsSysTableName(""));
}

TEST(SysRegistryTest, BuiltinsPresentAndNameSorted) {
  SystemTableRegistry registry;
  std::vector<const SystemTableDef*> tables = registry.Tables();
  ASSERT_EQ(tables.size(), 13u);
  for (size_t i = 1; i < tables.size(); ++i) {
    EXPECT_LT(tables[i - 1]->name, tables[i]->name);
  }
  for (const char* name :
       {"sys.metrics", "sys.histogram_buckets", "sys.query_log", "sys.tables",
        "sys.columns", "sys.indexes", "sys.table_stats", "sys.rewrite_rules",
        "sys.box_stats", "sys.plan_cache", "sys.settings", "sys.governor",
        "sys.active_queries"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  // Case-insensitive lookup; canonical names are lower-case.
  const SystemTableDef* def = registry.Find("SYS.METRICS");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->name, "sys.metrics");
}

std::vector<Row> FillDemo(const SysEngineState&) {
  return {Row{Value::Int(1)}, Row{Value::Int(2)}};
}

TEST(SysRegistryTest, RegisterValidatesPrefixAndDuplicates) {
  SystemTableRegistry registry;
  Schema schema;
  schema.AddColumn({"x", ColumnType::kInt});
  EXPECT_EQ(registry.Register("plain_name", schema, FillDemo).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("sys.metrics", schema, FillDemo).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(registry.Register("sys.demo", schema, FillDemo).ok());
  EXPECT_NE(registry.Find("sys.demo"), nullptr);
}

TEST(SysRegistryTest, ExtensionTableIsQueryable) {
  Database db;
  Schema schema;
  schema.AddColumn({"x", ColumnType::kInt});
  ASSERT_TRUE(db.system_tables()->Register("sys.demo", schema, FillDemo).ok());
  Table t = SysQuery(&db, "SELECT * FROM sys.demo WHERE x > 1");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.rows()[0][0].int_value(), 2);
}

// ---------------------------------------------------------------------------
// Schema reconciliation: every registered table is queryable and the result
// relation carries exactly the registry's schema.
// ---------------------------------------------------------------------------

TEST(SysSchemaTest, EveryTableScansWithItsRegisteredSchema) {
  Database db;
  SeedCatalog(&db);
  MetricsRegistry metrics;
  for (const SystemTableDef* def : db.system_tables()->Tables()) {
    Table t = SysQuery(&db, StrCat("SELECT * FROM ", def->name), &metrics);
    ASSERT_EQ(t.schema().num_columns(), def->schema.num_columns()) << def->name;
    for (int i = 0; i < def->schema.num_columns(); ++i) {
      EXPECT_EQ(t.schema().column(i).name, def->schema.column(i).name)
          << def->name;
    }
    // Result schemas are display-inferred from values, so reconcile types
    // by checking every value is storable in the registered column type.
    for (const Row& row : t.rows()) {
      ASSERT_EQ(static_cast<int>(row.size()), def->schema.num_columns())
          << def->name;
      for (int i = 0; i < def->schema.num_columns(); ++i) {
        EXPECT_TRUE(ValueMatchesType(row[static_cast<size_t>(i)],
                                     def->schema.column(i).type))
            << def->name << "." << def->schema.column(i).name;
      }
    }
  }
}

// The acceptance query, end to end.
TEST(SysSchemaTest, SelectNameValueFromSysMetricsWorks) {
  Database db;
  MetricsRegistry metrics;
  metrics.counter("demo.counter")->Add(7);
  Table t = SysQuery(&db, "SELECT name, value FROM sys.metrics", &metrics);
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.rows()[0][0].string_value(), "demo.counter");
  EXPECT_EQ(t.rows()[0][1].int_value(), 7);
}

// ---------------------------------------------------------------------------
// Row reconciliation per table.
// ---------------------------------------------------------------------------

TEST(SysReconcileTest, MetricsRowsMirrorRegistryCountersThenHistograms) {
  Database db;
  SeedCatalog(&db);
  MetricsRegistry metrics;
  QueryOptions opts;
  opts.metrics = &metrics;
  ASSERT_TRUE(db.Query("SELECT * FROM emp WHERE dept = 10", opts).ok());

  Table t = SysQuery(&db, "SELECT * FROM sys.metrics", &metrics);
  size_t expected =
      metrics.counters().size() + metrics.histograms().size();
  ASSERT_EQ(static_cast<size_t>(t.num_rows()), expected);
  // Counters first then histograms, each block name-sorted — the registry
  // dump order.
  size_t i = 0;
  for (const auto& [name, counter] : metrics.counters()) {
    EXPECT_EQ(StrCol(t, t.rows()[i], "name"), name);
    EXPECT_EQ(StrCol(t, t.rows()[i], "kind"), "counter");
    EXPECT_EQ(IntCol(t, t.rows()[i], "value"), counter.value());
    ++i;
  }
  for (const auto& [name, h] : metrics.histograms()) {
    EXPECT_EQ(StrCol(t, t.rows()[i], "name"), name);
    EXPECT_EQ(StrCol(t, t.rows()[i], "kind"), "histogram");
    EXPECT_EQ(IntCol(t, t.rows()[i], "value"), h.count());
    ++i;
  }
}

TEST(SysReconcileTest, HistogramBucketCountsSumToHistogramCount) {
  Database db;
  MetricsRegistry metrics;
  metrics.histogram("demo.h")->Observe(1);
  metrics.histogram("demo.h")->Observe(3);
  metrics.histogram("demo.h")->Observe(900);
  Table t = SysQuery(&db, "SELECT * FROM sys.histogram_buckets", &metrics);
  int64_t total = 0;
  for (const Row& row : t.rows()) {
    EXPECT_EQ(StrCol(t, row, "name"), "demo.h");
    total += IntCol(t, row, "count");
  }
  EXPECT_EQ(total, 3);
}

TEST(SysReconcileTest, QueryLogRowsMirrorEntries) {
  Database db;
  SeedCatalog(&db);
  ASSERT_TRUE(db.Query("SELECT * FROM emp").ok());
  ASSERT_FALSE(db.Query("SELECT * FROM no_such_table").ok());  // logged too

  Table t = SysQuery(&db, "SELECT * FROM sys.query_log");
  std::vector<const QueryLogEntry*> entries = db.query_log()->Entries();
  ASSERT_EQ(static_cast<size_t>(t.num_rows()), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(IntCol(t, t.rows()[i], "id"), entries[i]->id);
    EXPECT_EQ(StrCol(t, t.rows()[i], "sql"), entries[i]->sql);
    EXPECT_EQ(StrCol(t, t.rows()[i], "status"), entries[i]->status);
    EXPECT_EQ(IntCol(t, t.rows()[i], "rows"), entries[i]->rows);
    EXPECT_EQ(IntCol(t, t.rows()[i], "total_work"), entries[i]->total_work);
  }
}

// A query that compiles and then aborts in execution keeps its record: the
// log row carries the §3.2 choice and the rule fires, and the
// sys.rewrite_rules totals count them exactly as the rewrite.fires.<rule>
// counters do (both are fed from the same compile).
TEST(SysReconcileTest, GovernorAbortKeepsChoiceAndFiresInLogAndTotals) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER, b INTEGER);
    INSERT INTO t VALUES (1, 2), (1, 3), (2, 2), (3, 4);
    CREATE VIEW v (a, s) AS SELECT a, SUM(b) FROM t GROUP BY a;
    ANALYZE;
  )sql")
                  .ok());
  MetricsRegistry metrics;
  QueryOptions opts;
  opts.metrics = &metrics;
  ASSERT_TRUE(
      db.Query("SELECT t.a, v.s FROM t, v WHERE t.a = v.a AND t.b = 2", opts)
          .ok());
  QueryOptions limited = opts;
  limited.budget.max_output_rows = 1;
  auto aborted = db.Query("SELECT t.a, v.s FROM t, v WHERE t.a = v.a", limited);
  ASSERT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);

  Table rules = SysQuery(&db, "SELECT * FROM sys.rewrite_rules");
  ASSERT_GT(rules.num_rows(), 0);
  for (const Row& row : rules.rows()) {
    std::string rule = StrCol(rules, row, "rule");
    EXPECT_EQ(IntCol(rules, row, "fires"),
              metrics.CounterValue("rewrite.fires." + rule))
        << rule;
  }

  Table log = SysQuery(&db, "SELECT * FROM sys.query_log");
  ASSERT_EQ(log.num_rows(), 2);
  const Row& failed = log.rows()[1];
  EXPECT_NE(StrCol(log, failed, "status").find("ResourceExhausted"),
            std::string::npos);
  int applied = log.schema().FindColumn("emst_applied");
  EXPECT_TRUE(failed[static_cast<size_t>(applied)].bool_value());
  int c1 = log.schema().FindColumn("cost_no_emst");
  int c2 = log.schema().FindColumn("cost_with_emst");
  EXPECT_GT(failed[static_cast<size_t>(c1)].double_value(), 0);
  EXPECT_GT(failed[static_cast<size_t>(c2)].double_value(), 0);
  EXPECT_NE(StrCol(log, failed, "rule_fires").find("/emst="),
            std::string::npos)
      << StrCol(log, failed, "rule_fires");
  EXPECT_EQ(IntCol(log, failed, "total_work"), 0);
  EXPECT_EQ(IntCol(log, failed, "rows"), 0);
}

// Snapshot-then-log: a query over sys.query_log sees every prior query but
// never itself; the next query sees it.
TEST(SysReconcileTest, QueryLogSnapshotExcludesTheObservingQuery) {
  Database db;
  auto r1 = db.Query("SELECT * FROM sys.query_log");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->table.num_rows(), 0);

  auto r2 = db.Query("SELECT * FROM sys.query_log");
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->table.num_rows(), 1);
  EXPECT_NE(StrCol(r2->table, r2->table.rows()[0], "sql")
                .find("sys.query_log"),
            std::string::npos);
}

// Unlike sys.query_log (snapshot-then-log excludes the observer),
// sys.active_queries includes the observing query: it is in flight at its
// own snapshot, which is exactly what "active" means. Internal queries are
// never registered, so the shell dashboard does not watch itself.
TEST(SysReconcileTest, ActiveQueriesSeesTheRunningQueryButNotInternals) {
  Database db;
  auto r = db.Query("SELECT id, sql, phase FROM sys.active_queries");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table.num_rows(), 1);
  EXPECT_NE(StrCol(r->table, r->table.rows()[0], "sql")
                .find("sys.active_queries"),
            std::string::npos);
  // The sys snapshot materializes when the optimizer first resolves the
  // table name, so the self-observation is taken mid-optimization.
  EXPECT_EQ(StrCol(r->table, r->table.rows()[0], "phase"), "optimize");

  Table internal = SysQuery(&db, "SELECT * FROM sys.active_queries");
  EXPECT_EQ(internal.num_rows(), 0);
  EXPECT_EQ(db.progress()->active_count(), 0);
}

// The HTTP endpoint path: SnapshotSysTable materializes a registered table
// against live state without running SQL, and rejects unknown names.
TEST(SysSnapshotTest, SnapshotSysTableMirrorsRegisteredTables) {
  Database db;
  SeedCatalog(&db);
  QueryOptions options;
  options.internal = true;

  auto snapshot = db.SnapshotSysTable("sys.tables", options);
  ASSERT_TRUE(snapshot.ok());
  Table queried = SysQuery(&db, "SELECT * FROM sys.tables");
  ASSERT_EQ(snapshot->num_rows(), queried.num_rows());

  EXPECT_EQ(db.SnapshotSysTable("sys.nope", options).status().code(),
            StatusCode::kNotFound);
}

TEST(SysReconcileTest, TablesColumnsIndexesAndStatsMirrorCatalog) {
  Database db;
  SeedCatalog(&db);

  Table tables = SysQuery(&db, "SELECT * FROM sys.tables");
  std::map<std::string, std::string> kind_by_name;
  for (const Row& row : tables.rows()) {
    kind_by_name[StrCol(tables, row, "name")] = StrCol(tables, row, "kind");
  }
  EXPECT_EQ(kind_by_name["emp"], "table");
  EXPECT_EQ(kind_by_name["dept"], "table");
  EXPECT_EQ(kind_by_name["deptSal"], "view");  // views keep their spelling
  EXPECT_EQ(kind_by_name["sys.metrics"], "system");
  EXPECT_EQ(kind_by_name.size(),
            db.catalog()->TableNames().size() +
                db.catalog()->ViewNames().size() +
                db.system_tables()->size());

  Table columns = SysQuery(
      &db, "SELECT * FROM sys.columns WHERE table_name = 'emp'");
  ASSERT_EQ(columns.num_rows(), 3);
  EXPECT_EQ(StrCol(columns, columns.rows()[0], "name"), "empno");
  EXPECT_EQ(IntCol(columns, columns.rows()[2], "ordinal"), 2);

  Table indexes = SysQuery(&db, "SELECT * FROM sys.indexes");
  ASSERT_EQ(indexes.num_rows(), 1);
  EXPECT_EQ(StrCol(indexes, indexes.rows()[0], "name"), "emp_dept");
  EXPECT_EQ(StrCol(indexes, indexes.rows()[0], "table_name"), "emp");
  EXPECT_EQ(StrCol(indexes, indexes.rows()[0], "columns"), "dept");

  Table stats = SysQuery(
      &db, "SELECT * FROM sys.table_stats WHERE table_name = 'emp'");
  ASSERT_EQ(stats.num_rows(), 3);  // one row per analyzed column
  for (const Row& row : stats.rows()) {
    EXPECT_EQ(IntCol(stats, row, "row_count"), 3);
    EXPECT_EQ(IntCol(stats, row, "version"),
              IntCol(stats, row, "last_analyze_version"));
  }
}

TEST(SysReconcileTest, SettingsReportTheObservingQueryOptions) {
  Database db;
  QueryOptions options;
  options.internal = true;
  options.num_threads = 3;
  options.morsel_size = 17;
  auto r = db.Query("SELECT * FROM sys.settings", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r->table;
  std::map<std::string, std::pair<std::string, std::string>> rows;
  for (const Row& row : t.rows()) {
    rows[StrCol(t, row, "name")] = {StrCol(t, row, "value"),
                                    StrCol(t, row, "source")};
  }
  EXPECT_EQ(rows["num_threads"].first, "3");
  EXPECT_EQ(rows["num_threads"].second, "QueryOptions");
  EXPECT_EQ(rows["morsel_size"].first, "17");
  EXPECT_EQ(rows["internal"].first, "true");
  EXPECT_EQ(rows["strategy"].first, StrategyName(ExecutionStrategy::kMagic));
  EXPECT_EQ(rows["STARMAGIC_THREADS"].second, "env");
}

TEST(SysReconcileTest, GovernorRowsReportBudgetNameSorted) {
  Database db;
  QueryOptions options;
  options.internal = true;
  options.budget.max_memory_bytes = 123456;
  options.budget.deadline_ms = 250;
  auto r = db.Query("SELECT * FROM sys.governor", options);
  ASSERT_TRUE(r.ok());
  const Table& t = r->table;
  ASSERT_EQ(t.num_rows(), 10);
  for (size_t i = 1; i < t.rows().size(); ++i) {
    EXPECT_LT(StrCol(t, t.rows()[i - 1], "name"), StrCol(t, t.rows()[i], "name"));
  }
  ResourceBudget round_trip = BudgetFromGovernorRows(t);
  EXPECT_EQ(round_trip.max_memory_bytes, 123456);
  EXPECT_EQ(round_trip.deadline_ms, 250);
  EXPECT_EQ(round_trip.ToString(), options.budget.ToString());
}

// ---------------------------------------------------------------------------
// Read-only enforcement.
// ---------------------------------------------------------------------------

TEST(SysReadOnlyTest, AllWritePathsReturnTypedReadOnlyError) {
  Database db;
  SeedCatalog(&db);
  const char* statements[] = {
      "CREATE TABLE sys.mine (x INTEGER)",
      "CREATE VIEW sys.v (x) AS SELECT empno FROM emp",
      "CREATE INDEX sys.idx ON emp (dept)",
      "CREATE INDEX emp_i2 ON sys.metrics (name)",
      "DROP TABLE sys.metrics",
      "DROP VIEW sys.metrics",
      "INSERT INTO sys.metrics VALUES ('x')",
      "UPDATE sys.metrics SET name = 'x'",
      "DELETE FROM sys.metrics",
      "ANALYZE sys.metrics",
  };
  for (const char* sql : statements) {
    Status s = db.Execute(sql);
    EXPECT_EQ(s.code(), StatusCode::kReadOnly) << sql << "\n" << s.ToString();
  }
  // The write-path (non-const) catalog lookup never resolves sys names:
  // mutation code cannot reach a snapshot even by accident.
  EXPECT_EQ(db.catalog()->GetTable("sys.metrics"), nullptr);
}

// ---------------------------------------------------------------------------
// Governor accounting of snapshots.
// ---------------------------------------------------------------------------

TEST(SysGovernorTest, SnapshotBytesAreChargedAndInternalIsExempt) {
  Database db;
  SeedCatalog(&db);

  QueryOptions generous;
  generous.budget.max_memory_bytes = 64 * 1024 * 1024;
  auto ok = db.Query("SELECT * FROM sys.columns", generous);
  ASSERT_TRUE(ok.ok());
  EXPECT_GT(ok->governor.peak_bytes, 0);

  QueryOptions tiny;
  tiny.budget.max_memory_bytes = 1;
  auto aborted = db.Query("SELECT * FROM sys.columns", tiny);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);

  // The shell's canned queries run internal: observation must never abort
  // under the session budget it is displaying.
  tiny.internal = true;
  EXPECT_TRUE(db.Query("SELECT * FROM sys.columns", tiny).ok());
}

// ---------------------------------------------------------------------------
// Magic-sets over system tables (the PR acceptance query).
// ---------------------------------------------------------------------------

TEST(SysMagicTest, BoundViewOverSysBoxStatsTriggersEmstAndIsVisible) {
  Database db;
  SeedCatalog(&db);
  // Populate sys.box_stats (retained per-box stats of the last ANALYZE).
  ASSERT_TRUE(
      db.Query("EXPLAIN ANALYZE SELECT e.empno, d.name FROM emp e, dept d "
               "WHERE e.dept = d.deptno")
          .ok());
  ASSERT_GT(SysQuery(&db, "SELECT * FROM sys.box_stats").num_rows(), 0);

  // A user view with aggregation over two system tables; binding its
  // group-by column VIA A JOIN is the paper's magic-sets shape. (A constant
  // predicate `v.kind = 'Select'` would be handled by phase-1 predicate
  // pushdown before EMST ever looks at the view, so the binding comes from
  // a selective driver table instead — the Figure-1 shape.)
  ASSERT_TRUE(db.Execute(
                    "CREATE VIEW boxRollup (kind, boxes, total_rows) AS "
                    "SELECT b.kind, COUNT(*), SUM(b.act_rows) "
                    "FROM sys.box_stats b, sys.tables t "
                    "WHERE t.name = 'sys.box_stats' GROUP BY b.kind")
                  .ok());
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE kind_pick (kname VARCHAR, pick INTEGER);"
                    "INSERT INTO kind_pick VALUES ('SELECT', 1), "
                    "('GROUPBY', 0), ('BASETABLE', 0);"
                    "ANALYZE")
                  .ok());
  QueryOptions magic(ExecutionStrategy::kMagic);
  auto r = db.Query(
      "SELECT k.kname, v.boxes, v.total_rows FROM kind_pick k, boxRollup v "
      "WHERE k.kname = v.kind AND k.pick = 1",
      magic);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.num_rows(), 1);  // exactly the SELECT rollup row
  EXPECT_TRUE(r->emst_applied);
  int64_t emst_fires = 0;
  for (const RuleFireStats& f : r->rule_fires) {
    if (f.rule == "emst") emst_fires += f.fires;
  }
  EXPECT_GT(emst_fires, 0);

  // Visible in EXPLAIN...
  auto explained = db.Query(
      "EXPLAIN SELECT k.kname, v.boxes FROM kind_pick k, boxRollup v "
      "WHERE k.kname = v.kind AND k.pick = 1",
      magic);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->analyze_report.find("emst"), std::string::npos)
      << explained->analyze_report;

  // ...and in sys.rewrite_rules (cumulative, rule-name sorted).
  Table rules = SysQuery(&db, "SELECT * FROM sys.rewrite_rules");
  ASSERT_GT(rules.num_rows(), 0);
  bool found = false;
  for (size_t i = 0; i < rules.rows().size(); ++i) {
    if (i > 0) {
      EXPECT_LT(StrCol(rules, rules.rows()[i - 1], "rule"),
                StrCol(rules, rules.rows()[i], "rule"));
    }
    if (StrCol(rules, rules.rows()[i], "rule") == "emst") {
      found = true;
      EXPECT_GT(IntCol(rules, rules.rows()[i], "fires"), 0);
      EXPECT_GE(IntCol(rules, rules.rows()[i], "attempts"),
                IntCol(rules, rules.rows()[i], "fires"));
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE over a join of system tables reconciles exactly.
// ---------------------------------------------------------------------------

TEST(SysAnalyzeTest, JoinOfQueryLogAndMetricsReconcilesRowsOut) {
  Database db;
  SeedCatalog(&db);
  MetricsRegistry metrics;
  QueryOptions opts;
  opts.metrics = &metrics;
  ASSERT_TRUE(db.Query("SELECT * FROM emp", opts).ok());

  auto r = db.Query(
      "EXPLAIN ANALYZE SELECT q.id, m.name FROM sys.query_log q, "
      "sys.metrics m WHERE q.rows = m.value",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t sum_rows_out = 0;
  for (const auto& [box_id, stats] : r->box_stats) {
    sum_rows_out += stats.rows_out;
  }
  EXPECT_EQ(sum_rows_out, r->exec_stats.rows_produced);

  // The analyze's per-box rows are retained and queryable: total act_rows
  // of the computed boxes in sys.box_stats reproduces the run's
  // rows_produced, and the base-table rows carry the rows their scans read.
  Table boxes = SysQuery(&db, "SELECT * FROM sys.box_stats");
  int64_t act_total = 0;
  int64_t read_total = 0;
  for (const Row& row : boxes.rows()) {
    const bool base = StrCol(boxes, row, "kind") == "BASETABLE";
    (base ? read_total : act_total) += IntCol(boxes, row, "act_rows");
  }
  EXPECT_EQ(act_total, r->exec_stats.rows_produced);
  int64_t scanned = 0;
  for (const auto& [box_id, stats] : r->table_stats) scanned += stats.rows_out;
  EXPECT_GT(scanned, 0);
  EXPECT_EQ(read_total, scanned);
}

// ---------------------------------------------------------------------------
// Parallel determinism: byte-identical results at 1, 2, and 8 threads.
// ---------------------------------------------------------------------------

TEST(SysParallelTest, SnapshotScansAreByteIdenticalAcrossThreadCounts) {
  Database db;
  SeedCatalog(&db);
  MetricsRegistry metrics;
  QueryOptions warm;
  warm.metrics = &metrics;
  ASSERT_TRUE(db.Query("SELECT * FROM emp WHERE dept = 10", warm).ok());

  const char* queries[] = {
      "SELECT * FROM sys.metrics",
      "SELECT * FROM sys.rewrite_rules",
      "SELECT c.table_name, c.name, t.kind FROM sys.columns c, sys.tables t "
      "WHERE c.table_name = t.name AND t.kind = 'system'",
  };
  for (const char* sql : queries) {
    std::string baseline;
    for (int threads : {1, 2, 8}) {
      QueryOptions options;
      options.internal = true;
      options.metrics = &metrics;
      options.num_threads = threads;
      options.morsel_size = 1;  // force the parallel paths on small tables
      auto r = db.Query(sql, options);
      ASSERT_TRUE(r.ok()) << sql << " threads=" << threads;
      std::string rendered = r->table.ToString(100000);
      if (threads == 1) {
        baseline = rendered;
      } else {
        EXPECT_EQ(rendered, baseline) << sql << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dogfooding: the shell renderers reproduce the classic formatter bytes
// from sys.* rows.
// ---------------------------------------------------------------------------

class SysRenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SeedCatalog(&db_);
    QueryOptions opts;
    opts.metrics = &metrics_;
    ASSERT_TRUE(db_.Query("SELECT * FROM emp WHERE dept = 10", opts).ok());
    ASSERT_TRUE(
        db_.Query("SELECT e.empno FROM emp e, dept d WHERE e.dept = d.deptno",
                  opts)
            .ok());
    ASSERT_FALSE(db_.Query("SELECT * FROM missing", opts).ok());  // error row
  }

  Database db_;
  MetricsRegistry metrics_;
};

TEST_F(SysRenderTest, MetricsDumpMatchesRegistryToString) {
  Table t = SysQuery(&db_, "SELECT * FROM sys.metrics", &metrics_);
  EXPECT_EQ(RenderMetricsDump(t), metrics_.ToString());
}

TEST_F(SysRenderTest, QueryLogRenderMatchesDump) {
  Table t = SysQuery(&db_, "SELECT * FROM sys.query_log", &metrics_);
  EXPECT_EQ(RenderQueryLog(t), db_.query_log()->Dump());
  EXPECT_EQ(RenderQueryLog(t, 2), db_.query_log()->Dump(2));
  EXPECT_EQ(RenderQueryLog(t, 1), db_.query_log()->Dump(1));
}

TEST_F(SysRenderTest, EmptyQueryLogRendersPlaceholder) {
  Database fresh;
  Table t = SysQuery(&fresh, "SELECT * FROM sys.query_log");
  EXPECT_EQ(RenderQueryLog(t), "(query log empty)\n");
  EXPECT_EQ(RenderQueryLog(t), fresh.query_log()->Dump());
}

TEST_F(SysRenderTest, QErrorRenderMatchesQErrorReport) {
  Table t = SysQuery(&db_,
                     "SELECT * FROM sys.metrics "
                     "WHERE kind = 'histogram' AND name LIKE 'qerror.%'",
                     &metrics_);
  EXPECT_EQ(RenderQErrorReport(t), QErrorReport(metrics_));

  MetricsRegistry empty;
  Table none = SysQuery(&db_,
                        "SELECT * FROM sys.metrics "
                        "WHERE kind = 'histogram' AND name LIKE 'qerror.%'",
                        &empty);
  EXPECT_EQ(RenderQErrorReport(none), QErrorReport(empty));
}

TEST_F(SysRenderTest, SysListCoversEveryRegisteredTable) {
  Table t = SysQuery(&db_,
                     "SELECT table_name, name, type FROM sys.columns "
                     "WHERE table_name LIKE 'sys.%'");
  std::string listing = RenderSysList(t);
  for (const SystemTableDef* def : db_.system_tables()->Tables()) {
    EXPECT_NE(listing.find(StrCat(def->name, "(")), std::string::npos)
        << def->name;
  }
}

}  // namespace
}  // namespace starmagic
