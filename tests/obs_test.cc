// Observability subsystem: the span tracer, the metrics registry, the
// Chrome trace_event export, and the EXPLAIN ANALYZE invariants (per-box
// row counts reconcile exactly with the executor's work counters, and
// identical runs produce identical counters).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/decision_audit.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "rewrite/constant_folding.h"
#include "rewrite/engine.h"

namespace starmagic {
namespace {

// Minimal structural JSON check: balanced {} / [] outside string literals,
// legal escapes inside them, and no trailing garbage. Not a full parser,
// but catches every way the exporter could emit broken JSON (unescaped
// quotes/newlines, unbalanced nesting, truncation).
bool JsonWellFormed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        if (i + 1 >= text.size()) return false;
        char e = text[i + 1];
        if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
            e != 'n' && e != 'r' && e != 't' && e != 'u') {
          return false;
        }
        ++i;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.BeginSpan("ignored"), -1);
  tracer.AddEvent("ignored");
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.events().empty());
  // SpanScope on a null tracer is a no-op, not a crash.
  SpanScope null_scope(nullptr, "ignored");
  EXPECT_EQ(null_scope.span_id(), -1);
}

TEST(TracerTest, SpansNestUnderInnermostOpenSpan) {
  Tracer tracer(true);
  int root = tracer.BeginSpan("root", "test");
  int child = tracer.BeginSpan("child", "test");
  int grandchild = tracer.BeginSpan("grandchild", "test");
  tracer.EndSpan(grandchild);
  int sibling = tracer.BeginSpan("sibling", "test");
  tracer.EndSpan(sibling);
  tracer.EndSpan(child);
  tracer.EndSpan(root);

  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.spans()[root].parent_id, -1);
  EXPECT_EQ(tracer.spans()[child].parent_id, root);
  EXPECT_EQ(tracer.spans()[grandchild].parent_id, child);
  EXPECT_EQ(tracer.spans()[sibling].parent_id, child);
  for (const SpanRecord& span : tracer.spans()) {
    EXPECT_TRUE(span.closed()) << span.name;
    EXPECT_GE(span.end_us, span.begin_us) << span.name;
  }
}

TEST(TracerTest, EndSpanClosesEverythingOpenedAfterIt) {
  Tracer tracer(true);
  int root = tracer.BeginSpan("root");
  tracer.BeginSpan("leaked-child");
  tracer.BeginSpan("leaked-grandchild");
  tracer.EndSpan(root);  // error-path pattern: children never ended
  for (const SpanRecord& span : tracer.spans()) {
    EXPECT_TRUE(span.closed()) << span.name;
  }
  // The stack is empty again: the next span is a root.
  int next = tracer.BeginSpan("next");
  EXPECT_EQ(tracer.spans()[next].parent_id, -1);
}

TEST(TracerTest, AttributesAndEvents) {
  Tracer tracer(true);
  int span = tracer.BeginSpan("work", "test");
  tracer.SetAttribute(span, "rows", int64_t{42});
  tracer.SetAttribute(span, "phase", "phase2");
  tracer.SetAttribute(span, "rows", int64_t{43});  // last write wins
  tracer.AddEvent("warning", "test", {{"detail", "boom"}});
  tracer.EndSpan(span);

  const SpanRecord& record = tracer.spans()[span];
  const TraceValue* rows = record.FindAttribute("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->i, 43);
  const TraceValue* phase = record.FindAttribute("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->str, "phase2");
  EXPECT_EQ(record.FindAttribute("absent"), nullptr);

  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].name, "warning");
  EXPECT_EQ(tracer.events()[0].parent_span, span);
}

TEST(TracerTest, SpanScopeClosesOnDestructionAndEarlyEndIsIdempotent) {
  Tracer tracer(true);
  {
    SpanScope outer(&tracer, "outer");
    outer.SetAttribute("k", true);
    {
      SpanScope inner(&tracer, "inner");
      inner.End();
      inner.End();  // idempotent
    }
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  for (const SpanRecord& span : tracer.spans()) {
    EXPECT_TRUE(span.closed()) << span.name;
  }
}

TEST(TracerTest, TraceEventJsonIsWellFormedWithHostileNames) {
  Tracer tracer(true);
  int span = tracer.BeginSpan("quote \" backslash \\ newline \n tab \t");
  tracer.SetAttribute(span, "key \"x\"", "value\nwith\tescapes\\");
  tracer.AddEvent("event \"e\"");
  tracer.EndSpan(span);
  tracer.BeginSpan("left-open");  // exported as if it ended now

  std::string json = tracer.ToTraceEventJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(TracerTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TracerTest, JsonEscapePassesWellFormedUtf8Through) {
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");          // é
  EXPECT_EQ(JsonEscape("\xe2\x82\xac"), "\xe2\x82\xac");        // €
  EXPECT_EQ(JsonEscape("\xf0\x9f\x90\x98"), "\xf0\x9f\x90\x98");  // 🐘
}

TEST(TracerTest, JsonEscapeReplacesMalformedUtf8Bytes) {
  // A stray continuation byte, a truncated lead, and an overlong/surrogate
  // lead each become one U+FFFD escape — never raw invalid bytes that
  // would make the exported JSON unparseable.
  EXPECT_EQ(JsonEscape("a\x80z"), "a\\ufffdz");
  EXPECT_EQ(JsonEscape("a\xc3"), "a\\ufffd");              // truncated é
  EXPECT_EQ(JsonEscape("\xc0\xaf"), "\\ufffd\\ufffd");     // overlong
  EXPECT_EQ(JsonEscape("\xed\xa0\x80"),
            "\\ufffd\\ufffd\\ufffd");                      // surrogate
  EXPECT_EQ(JsonEscape("\xf5\x80"), "\\ufffd\\ufffd");     // > U+10FFFF
}

TEST(TracerTest, ClearKeepsEnabledFlag) {
  Tracer tracer(true);
  tracer.BeginSpan("s");
  tracer.AddEvent("e");
  tracer.Clear();
  EXPECT_TRUE(tracer.enabled());
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.events().empty());
}

TEST(MetricsTest, CountersAndHistograms) {
  MetricsRegistry registry;
  registry.counter("exec.cache_hits")->Add(3);
  registry.counter("exec.cache_hits")->Add();
  EXPECT_EQ(registry.CounterValue("exec.cache_hits"), 4);
  // CounterValue on an untouched name reads 0 without inserting it.
  EXPECT_EQ(registry.CounterValue("never.touched"), 0);
  EXPECT_EQ(registry.counters().count("never.touched"), 0u);

  Histogram* h = registry.histogram("exec.rows_per_query");
  h->Observe(1);
  h->Observe(5);
  h->Observe(100);
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 106);
  EXPECT_DOUBLE_EQ(h->min(), 1);
  EXPECT_DOUBLE_EQ(h->max(), 100);

  std::string dump = registry.ToString();
  EXPECT_NE(dump.find("exec.cache_hits 4"), std::string::npos);
  EXPECT_NE(dump.find("exec.rows_per_query count=3"), std::string::npos);

  registry.Clear();
  EXPECT_EQ(registry.CounterValue("exec.cache_hits"), 0);
}

TEST(MetricsTest, PercentilesFromPowerOfTwoBuckets) {
  Histogram h;
  // Empty histogram: percentiles are 0, not garbage.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0);

  // A single observation of exactly 1 lands in bucket [1, 2); clamping to
  // [min, max] reports exactly 1 at every percentile.
  h.Observe(1);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1);
}

TEST(MetricsTest, PercentileAtExactPowerOfTwo) {
  // 2^k sits on a bucket boundary: it falls in [2^k, 2^(k+1)), whose upper
  // edge 2^(k+1) is clamped down to max = 2^k — the report stays exact.
  for (double v : {2.0, 1024.0, 65536.0}) {
    Histogram h;
    h.Observe(v);
    EXPECT_DOUBLE_EQ(h.Percentile(50), v) << v;
    EXPECT_DOUBLE_EQ(h.Percentile(95), v) << v;
    EXPECT_DOUBLE_EQ(h.Percentile(99), v) << v;
  }
}

TEST(MetricsTest, PercentileWithNegativeAndZeroObservations) {
  Histogram h;
  h.Observe(-5);
  h.Observe(0);
  // Both land in the underflow bucket (-inf, 1); its upper edge 1 is
  // clamped to max = 0.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0);
  // min-clamping: p0-ish percentiles cannot report below the observed min.
  EXPECT_GE(h.Percentile(1), h.min());
}

TEST(MetricsTest, PercentileNearestRankIsNotInflatedByFloatError) {
  // p=95, n=20: 0.95*20 evaluates to 19.000000000000004 in binary floats,
  // so a bare ceil demands rank 20 — the single huge outlier — instead of
  // rank 19. The epsilon in Percentile keeps the target at 19, whose
  // sample (1.0, bucket [1,2)) reports the bucket's upper edge 2.
  Histogram h;
  for (int i = 0; i < 19; ++i) h.Observe(1.0);
  h.Observe(1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 2);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1000);  // rank 20 — the outlier

  // Same trap at p=50, n=10 (0.5*10 is exact, but pin it anyway): rank 5
  // of five 1.0s and five 1000.0s is still a 1.0.
  Histogram half;
  for (int i = 0; i < 5; ++i) half.Observe(1.0);
  for (int i = 0; i < 5; ++i) half.Observe(1000.0);
  EXPECT_DOUBLE_EQ(half.Percentile(50), 2);
}

TEST(MetricsTest, PercentileZeroClampsToRankOne) {
  Histogram h;
  h.Observe(4.0);
  h.Observe(8.0);
  // p=0 would compute target 0; the floor of rank 1 keeps it meaningful.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 8);  // bucket [4,8) upper edge
  EXPECT_DOUBLE_EQ(h.Percentile(100), 8);
}

TEST(MetricsTest, PercentileOrderingAndToString) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  double p50 = h.Percentile(50);
  double p95 = h.Percentile(95);
  double p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 of 1..100: the 50th observation is 50, inside bucket [32, 64).
  EXPECT_DOUBLE_EQ(p50, 64);
  EXPECT_DOUBLE_EQ(p99, 100);  // clamped to max

  std::string s = h.ToString();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p95="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

TEST(MetricsTest, QErrorReportFiltersQErrorHistograms) {
  MetricsRegistry registry;
  EXPECT_NE(QErrorReport(registry).find("no q-error data"),
            std::string::npos);
  registry.histogram("qerror.select")->Observe(2);
  registry.histogram("exec.rows_per_query")->Observe(7);
  std::string report = QErrorReport(registry);
  EXPECT_NE(report.find("qerror.select"), std::string::npos);
  EXPECT_EQ(report.find("exec.rows_per_query"), std::string::npos);
}

TEST(MetricsTest, ToStringIsNameSorted) {
  MetricsRegistry registry;
  registry.counter("zebra")->Add(1);
  registry.counter("alpha")->Add(2);
  std::string dump = registry.ToString();
  EXPECT_LT(dump.find("alpha"), dump.find("zebra"));
}

TEST(RewriteEngineTest, SetEnabledReportsUnknownRules) {
  Tracer tracer(true);
  RewriteEngine engine;
  engine.set_tracer(&tracer);
  engine.AddRule(std::make_unique<ConstantFoldingRule>());
  EXPECT_TRUE(engine.SetEnabled("constant-folding", false));
  EXPECT_FALSE(engine.IsEnabled("constant-folding"));
  EXPECT_TRUE(engine.SetEnabled("constant-folding", true));

  EXPECT_FALSE(engine.SetEnabled("no-such-rule", true));
  ASSERT_FALSE(tracer.events().empty());
  EXPECT_EQ(tracer.events().back().name, "rewrite.unknown_rule");
}

TEST(QueryLogTest, RingEvictsOldestAndIdsKeepCounting) {
  QueryLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(log.Latest(), nullptr);
  EXPECT_NE(log.Dump().find("query log empty"), std::string::npos);

  for (int i = 0; i < 5; ++i) {
    QueryLogEntry e;
    e.sql = "SELECT " + std::to_string(i);
    e.kind = "select";
    e.strategy = "EMST";
    log.Record(std::move(e));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5);

  // Oldest-first iteration holds the three newest entries; ids kept
  // counting across the two evictions.
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->id, 3);
  EXPECT_EQ(entries[1]->id, 4);
  EXPECT_EQ(entries[2]->id, 5);
  EXPECT_EQ(entries[0]->sql, "SELECT 2");
  ASSERT_NE(log.Latest(), nullptr);
  EXPECT_EQ(log.Latest()->id, 5);

  // Dump(n) keeps the most recent n, rendered oldest-first.
  std::string dump = log.Dump(2);
  EXPECT_EQ(dump.find("SELECT 2"), std::string::npos);
  EXPECT_LT(dump.find("SELECT 3"), dump.find("SELECT 4"));

  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  // Ids are not reset by Clear: history stays monotone.
  QueryLogEntry e;
  e.sql = "SELECT 9";
  log.Record(std::move(e));
  EXPECT_EQ(log.Latest()->id, 6);
}

TEST(QueryLogTest, EntryToStringRendersDecisionAndErrors) {
  QueryLogEntry e;
  e.id = 7;
  e.sql = "SELECT *\nFROM t";
  e.kind = "select";
  e.strategy = "EMST";
  e.cost_no_emst = 100;
  e.cost_with_emst = 10;
  e.emst_applied = true;
  e.emst_chosen = true;
  e.rows = 3;
  e.total_work = 42;
  e.rule_fires.push_back({"phase2", "magic", 2});
  std::string s = e.ToString();
  EXPECT_NE(s.find("#7 [select/EMST] ok"), std::string::npos);
  EXPECT_NE(s.find("C1=100 C2=10 chosen=emst"), std::string::npos);
  EXPECT_NE(s.find("SELECT * FROM t"), std::string::npos);  // newline folded
  EXPECT_NE(s.find("phase2/magic=2"), std::string::npos);

  QueryLogEntry err;
  err.id = 8;
  err.kind = "select";
  err.strategy = "Original";
  err.sql = "SELECT nonsense";
  err.status = "ParseError: boom";
  std::string es = err.ToString();
  EXPECT_NE(es.find("ERROR"), std::string::npos);
  EXPECT_NE(es.find("ParseError: boom"), std::string::npos);
}

TEST(DecisionAuditTest, QErrorClampsBothSides) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10);
  // Zero/negative inputs clamp to 1 instead of dividing by zero.
  EXPECT_DOUBLE_EQ(QError(0, 8), 8);
  EXPECT_DOUBLE_EQ(QError(8, 0), 8);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1);
}

TEST(DecisionAuditTest, CountersSplitByChoiceAndMispredict) {
  MetricsRegistry metrics;
  // Accurate estimate, EMST chosen: decisions.emst only.
  DecisionAudit a = AuditPlanDecision(/*cost_no_emst=*/100,
                                      /*cost_with_emst=*/10,
                                      /*emst_chosen=*/true,
                                      /*actual_work=*/12,
                                      /*mispredict_ratio=*/10, &metrics,
                                      nullptr);
  EXPECT_TRUE(a.emst_chosen);
  EXPECT_DOUBLE_EQ(a.estimated_cost, 10);  // the chosen plan's estimate
  EXPECT_FALSE(a.mispredicted);
  EXPECT_EQ(metrics.CounterValue("optimizer.decisions.emst"), 1);
  EXPECT_EQ(metrics.CounterValue("optimizer.decisions.no_emst"), 0);
  EXPECT_EQ(metrics.CounterValue("optimizer.mispredict"), 0);

  // No-EMST chosen with a wildly wrong estimate: mispredict fires.
  DecisionAudit b = AuditPlanDecision(100, 500, /*emst_chosen=*/false,
                                      /*actual_work=*/100000,
                                      /*mispredict_ratio=*/10, &metrics,
                                      nullptr);
  EXPECT_FALSE(b.emst_chosen);
  EXPECT_DOUBLE_EQ(b.estimated_cost, 100);
  EXPECT_TRUE(b.mispredicted);
  EXPECT_NE(b.ToString().find("MISPREDICT"), std::string::npos);
  EXPECT_EQ(metrics.CounterValue("optimizer.decisions.no_emst"), 1);
  EXPECT_EQ(metrics.CounterValue("optimizer.mispredict"), 1);
  EXPECT_EQ(metrics.histograms().at("qerror.plan_cost").count(), 2);

  // The same wrong estimate under a huge tolerance is not a mispredict.
  DecisionAudit c = AuditPlanDecision(100, 500, false, 100000,
                                      /*mispredict_ratio=*/1e6, &metrics,
                                      nullptr);
  EXPECT_FALSE(c.mispredicted);
  EXPECT_EQ(metrics.CounterValue("optimizer.mispredict"), 1);  // unchanged
}

TEST(DecisionAuditTest, MispredictEmitsWarningSpan) {
  Tracer tracer(true);
  AuditPlanDecision(100, 10, true, /*actual_work=*/1000000,
                    /*mispredict_ratio=*/10, nullptr, &tracer);
  ASSERT_FALSE(tracer.spans().empty());
  const SpanRecord& span = tracer.spans().back();
  EXPECT_EQ(span.name, "decision-audit");
  const TraceValue* warning = span.FindAttribute("warning");
  ASSERT_NE(warning, nullptr);
  bool saw_event = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "optimizer.mispredict") saw_event = true;
  }
  EXPECT_TRUE(saw_event);
}

// End-to-end fixture: the paper's employee/department schema with an
// aggregate view, small enough for the magic pipeline to run every phase.
class ObsQueryTest : public ::testing::Test {
 protected:
  void Populate(Database* db) {
    ASSERT_TRUE(db->ExecuteScript(R"sql(
      CREATE TABLE department (deptno INTEGER, deptname VARCHAR);
      CREATE TABLE employee (empno INTEGER, workdept INTEGER,
                             salary DOUBLE);
    )sql").ok());
    Table* dept = db->catalog()->GetTable("department");
    Table* emp = db->catalog()->GetTable("employee");
    for (int d = 0; d < 8; ++d) {
      ASSERT_TRUE(dept->Append({Value::Int(d),
                                Value::String(d == 2 ? "Planning"
                                                     : "D" + std::to_string(d))})
                      .ok());
    }
    for (int e = 0; e < 64; ++e) {
      ASSERT_TRUE(emp->Append({Value::Int(e), Value::Int(e % 8),
                               Value::Double(20000.0 + 100.0 * e)})
                      .ok());
    }
    ASSERT_TRUE(db->SetPrimaryKey("department", {"deptno"}).ok());
    ASSERT_TRUE(db->ExecuteScript(R"sql(
      CREATE VIEW avgDeptSal (workdept, avgsalary) AS
        SELECT workdept, AVG(salary) FROM employee GROUP BY workdept;
    )sql").ok());
    ASSERT_TRUE(db->AnalyzeAll().ok());
  }

  const std::string query_ =
      "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
      "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";
};

TEST_F(ObsQueryTest, QueryLifecycleEmitsClosedNestedSpans) {
  Database db;
  Populate(&db);
  Tracer tracer(true);
  QueryOptions options(ExecutionStrategy::kMagic);
  options.tracer = &tracer;
  auto result = db.Query(query_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 1);

  bool saw_optimize = false;
  bool saw_execute = false;
  for (const SpanRecord& span : tracer.spans()) {
    EXPECT_TRUE(span.closed()) << span.name;
    // Parents always precede children and exist.
    if (span.parent_id != -1) {
      ASSERT_GE(span.parent_id, 0);
      ASSERT_LT(span.parent_id, span.id);
    }
    if (span.name == "optimize") saw_optimize = true;
    if (span.name == "execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_optimize);
  EXPECT_TRUE(saw_execute);
  std::string json = tracer.ToTraceEventJson();
  EXPECT_TRUE(JsonWellFormed(json));
}

TEST_F(ObsQueryTest, ExplainAnalyzeRowsReconcileWithExecStats) {
  Database db;
  Populate(&db);
  QueryOptions options(ExecutionStrategy::kMagic);
  auto result = db.Query("EXPLAIN ANALYZE " + query_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every row the executor produced is attributed to exactly one box.
  ASSERT_FALSE(result->box_stats.empty());
  int64_t rows_out = 0;
  for (const auto& [box_id, stats] : result->box_stats) {
    rows_out += stats.rows_out;
  }
  EXPECT_EQ(rows_out, result->exec_stats.rows_produced);

  EXPECT_NE(result->analyze_report.find("EXPLAIN ANALYZE"),
            std::string::npos);
  EXPECT_NE(result->analyze_report.find("act_rows="), std::string::npos);
  EXPECT_NE(result->analyze_report.find("est_rows="), std::string::npos);
  EXPECT_NE(result->analyze_report.find("rule fires:"), std::string::npos);
  // The report is also the result table, one line per row.
  EXPECT_GT(result->table.num_rows(), 0);
}

TEST_F(ObsQueryTest, PlainExplainSkipsExecution) {
  Database db;
  Populate(&db);
  auto result = db.Query("EXPLAIN " + query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->box_stats.empty());
  EXPECT_EQ(result->exec_stats.rows_produced, 0);
  EXPECT_NE(result->analyze_report.find("est_rows="), std::string::npos);
  EXPECT_EQ(result->analyze_report.find("act_rows="), std::string::npos);
}

TEST_F(ObsQueryTest, RuleFiresArePhaseTagged) {
  Database db;
  Populate(&db);
  QueryOptions options(ExecutionStrategy::kMagic);
  auto result = db.Query(query_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rule_fires.empty());
  bool saw_phase1 = false;
  int64_t total = 0;
  for (const RuleFireStats& f : result->rule_fires) {
    EXPECT_FALSE(f.phase.empty());
    EXPECT_FALSE(f.rule.empty());
    if (f.phase == "phase1") saw_phase1 = true;
    total += f.fires;
  }
  EXPECT_TRUE(saw_phase1);
  EXPECT_EQ(total, result->rewrite_applications);
}

TEST_F(ObsQueryTest, CountersAreDeterministicAcrossIdenticalRuns) {
  std::string dumps[2];
  for (int run = 0; run < 2; ++run) {
    Database db;
    Populate(&db);
    MetricsRegistry metrics;
    QueryOptions options(ExecutionStrategy::kMagic);
    options.metrics = &metrics;
    auto result = db.Query(query_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto explained = db.Query("EXPLAIN ANALYZE " + query_, options);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    dumps[run] = metrics.ToString();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_NE(dumps[0].find("query.executions 2"), std::string::npos);
}

// The tentpole acceptance path: one EXPLAIN ANALYZE of a Table-1-style
// query populates (1) the query log, (2) the §3.2 decision-audit
// counters, and (3) per-box-type Q-error histograms.
TEST_F(ObsQueryTest, ExplainAnalyzePopulatesLogAuditAndQError) {
  Database db;
  Populate(&db);
  MetricsRegistry metrics;
  QueryOptions options(ExecutionStrategy::kMagic);
  options.metrics = &metrics;
  auto result = db.Query("EXPLAIN ANALYZE " + query_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // (1) Query log: the call was recorded with kind, strategy, and the
  // C1/C2 decision inputs.
  ASSERT_EQ(db.query_log()->size(), 1u);
  const QueryLogEntry* entry = db.query_log()->Latest();
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, "explain-analyze");
  EXPECT_EQ(entry->strategy, "EMST");
  EXPECT_EQ(entry->status, "ok");
  EXPECT_TRUE(entry->emst_applied);
  EXPECT_GT(entry->cost_no_emst, 0);
  EXPECT_GT(entry->total_work, 0);
  EXPECT_EQ(entry->rows, result->result_rows);
  EXPECT_FALSE(entry->rule_fires.empty());
  for (const RuleFireStats& f : entry->rule_fires) EXPECT_GT(f.fires, 0);

  // (2) Decision audit: exactly one decision was counted, on the side the
  // optimizer chose, and the audit is embedded in result + report.
  ASSERT_TRUE(result->decision_audited);
  int64_t emst = metrics.CounterValue("optimizer.decisions.emst");
  int64_t no_emst = metrics.CounterValue("optimizer.decisions.no_emst");
  EXPECT_EQ(emst + no_emst, 1);
  EXPECT_EQ(emst == 1, result->emst_chosen);
  EXPECT_NE(result->analyze_report.find("decision audit:"),
            std::string::npos);

  // (3) Q-error accounting: per-box-type histograms are non-empty, and the
  // magic boxes of the transformed plan got their own bucket.
  int64_t qerror_observations = 0;
  bool saw_magic = false;
  for (const auto& [name, histogram] : metrics.histograms()) {
    if (name.rfind("qerror.", 0) != 0) continue;
    qerror_observations += histogram.count();
    if (name == "qerror.magic") saw_magic = true;
  }
  EXPECT_GT(qerror_observations, 0);
  EXPECT_TRUE(result->emst_chosen ? saw_magic : true);
  EXPECT_NE(QErrorReport(metrics).find("qerror."), std::string::npos);
}

TEST_F(ObsQueryTest, QueryLogRecordsFailuresAndPlainSelects) {
  Database db;
  Populate(&db);
  auto bad = db.Query("SELECT FROM nowhere !!");
  EXPECT_FALSE(bad.ok());
  auto good = db.Query(query_, QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(good.ok()) << good.status().ToString();

  auto entries = db.query_log()->Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0]->status, "ok");
  EXPECT_EQ(entries[0]->rows, 0);
  EXPECT_EQ(entries[1]->status, "ok");
  EXPECT_EQ(entries[1]->kind, "select");
  EXPECT_EQ(entries[1]->strategy, "Original");
  EXPECT_EQ(entries[1]->rows, 1);
  EXPECT_GT(entries[1]->total_work, 0);
  // Original strategy: the EMST pipeline never ran, so no C2 is logged.
  EXPECT_FALSE(entries[1]->emst_applied);
  std::string dump = db.query_log()->Dump();
  EXPECT_NE(dump.find("ERROR"), std::string::npos);
  EXPECT_NE(dump.find("Planning"), std::string::npos);
}

// QueryResult::exec_ms times Executor::Run alone and wall_ms the whole
// Query() call, so a statement that executes has 0 < exec_ms <= wall_ms
// and one that does not has exec_ms == 0. The query log's wall_ms is read
// from the same record.
TEST_F(ObsQueryTest, ExecAndWallTimesBracketExecution) {
  Database db;
  Populate(&db);
  const QueryOptions options(ExecutionStrategy::kMagic);
  auto run = [&](const std::string& sql) {
    auto result = db.Query(sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return QueryResult();
    EXPECT_EQ(db.query_log()->Latest()->wall_ms, result->wall_ms) << sql;
    EXPECT_GT(result->wall_ms, 0) << sql;
    return std::move(*result);
  };
  const std::string executing[] = {
      query_,
      "EXPLAIN ANALYZE " + query_,
  };
  for (const std::string& sql : executing) {
    QueryResult r = run(sql);
    EXPECT_GT(r.exec_ms, 0) << sql;
    EXPECT_LE(r.exec_ms, r.wall_ms) << sql;
  }
  EXPECT_EQ(run("EXPLAIN " + query_).exec_ms, 0);
  EXPECT_EQ(run("PREPARE planning AS " + query_).exec_ms, 0);
  QueryResult executed = run("EXECUTE planning");
  EXPECT_GT(executed.exec_ms, 0);
  EXPECT_LE(executed.exec_ms, executed.wall_ms);
  EXPECT_EQ(run("DEALLOCATE planning").exec_ms, 0);
}

TEST_F(ObsQueryTest, DecisionAuditCountersAreDeterministic) {
  std::string dumps[2];
  for (int run = 0; run < 2; ++run) {
    Database db;
    Populate(&db);
    MetricsRegistry metrics;
    QueryOptions options(ExecutionStrategy::kMagic);
    options.metrics = &metrics;
    ASSERT_TRUE(db.Query(query_, options).ok());
    ASSERT_TRUE(db.Query("EXPLAIN ANALYZE " + query_, options).ok());
    dumps[run] = metrics.ToString();
    // Both the plain query and the analyze audited their decision.
    EXPECT_EQ(metrics.CounterValue("optimizer.decisions.emst") +
                  metrics.CounterValue("optimizer.decisions.no_emst"),
              2);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST_F(ObsQueryTest, RecursiveExplainAnalyzeRowsReconcile) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE edge (src INTEGER, dst INTEGER);
    INSERT INTO edge VALUES (1,2),(2,3),(3,4),(4,5),(5,6),(2,6),(7,8);
    CREATE RECURSIVE VIEW tc (src, dst) AS
      SELECT src, dst FROM edge UNION
      SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
    ANALYZE;
  )sql").ok());
  QueryOptions options(ExecutionStrategy::kMagic);
  auto result =
      db.Query("EXPLAIN ANALYZE SELECT src, dst FROM tc WHERE src = 1",
               options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->exec_stats.fixpoint_iterations, 0);

  ASSERT_FALSE(result->box_stats.empty());
  int64_t rows_out = 0;
  for (const auto& [box_id, stats] : result->box_stats) {
    rows_out += stats.rows_out;
  }
  EXPECT_EQ(rows_out, result->exec_stats.rows_produced);
  EXPECT_EQ(result->result_rows, 5);  // 1->2,3,4,5,6
}

TEST_F(ObsQueryTest, ExplainAnalyzeRecordsBaseTableScansAndProbes) {
  Database db;
  Populate(&db);
  MetricsRegistry metrics;
  QueryOptions options(ExecutionStrategy::kOriginal);
  options.metrics = &metrics;
  // Without an index both tables are scanned once: each base-table box
  // reads its whole table, and the scans feed qerror.basetable.
  auto scanned = db.Query(
      "EXPLAIN ANALYZE SELECT e.empno FROM department d, employee e "
      "WHERE d.deptno = e.workdept AND d.deptname = 'Planning'",
      options);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned->table_stats.size(), 2u);
  int64_t read = 0;
  for (const auto& [box_id, stats] : scanned->table_stats) {
    EXPECT_EQ(stats.evaluations, 1);
    EXPECT_EQ(stats.probes, 0);
    read += stats.rows_out;
  }
  EXPECT_EQ(read, 8 + 64);
  EXPECT_EQ(scanned->analyze_report.find("(not evaluated)"), std::string::npos)
      << scanned->analyze_report;
  const Histogram* basetable = metrics.FindHistogram("qerror.basetable");
  ASSERT_NE(basetable, nullptr);
  EXPECT_EQ(basetable->count(), 2);

  // With an index on employee.workdept the employee box is probed, not
  // scanned: probes and fetched rows land on it, and only the scanned
  // department table is scored.
  ASSERT_TRUE(db.Execute("CREATE INDEX emp_dept ON employee (workdept)").ok());
  auto probed = db.Query(
      "EXPLAIN ANALYZE SELECT e.empno FROM department d, employee e "
      "WHERE d.deptno = e.workdept AND d.deptname = 'Planning'",
      options);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  ASSERT_GT(probed->exec_stats.index_probes, 0);
  int64_t probes = 0, fetched_or_read = 0;
  for (const auto& [box_id, stats] : probed->table_stats) {
    probes += stats.probes;
    fetched_or_read += stats.rows_out;
  }
  EXPECT_EQ(probes, probed->exec_stats.index_probes);
  EXPECT_EQ(fetched_or_read, 8 + probed->exec_stats.index_rows_fetched);
  EXPECT_EQ(basetable->count(), 3);
}

TEST_F(ObsQueryTest, StaleStatsWarningAfterInsertWithoutAnalyze) {
  Database db;
  Populate(&db);
  // Populate() ends with AnalyzeAll, so nothing is stale yet.
  MetricsRegistry fresh_metrics;
  QueryOptions options(ExecutionStrategy::kMagic);
  options.metrics = &fresh_metrics;
  auto fresh = db.Query("EXPLAIN ANALYZE " + query_, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh_metrics.CounterValue("optimizer.stale_stats"), 0);
  EXPECT_EQ(fresh->analyze_report.find("are stale"), std::string::npos);

  // INSERT bumps employee's version past its last-analyze mark.
  ASSERT_TRUE(
      db.Execute("INSERT INTO employee VALUES (999, 2, 90000.0)").ok());
  MetricsRegistry stale_metrics;
  options.metrics = &stale_metrics;
  auto stale = db.Query("EXPLAIN ANALYZE " + query_, options);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale_metrics.CounterValue("optimizer.stale_stats"), 1);
  EXPECT_NE(stale->analyze_report.find("statistics for 'employee' are stale"),
            std::string::npos);

  // ANALYZE clears the warning again.
  ASSERT_TRUE(db.Execute("ANALYZE employee").ok());
  MetricsRegistry cleared_metrics;
  options.metrics = &cleared_metrics;
  auto cleared = db.Query("EXPLAIN ANALYZE " + query_, options);
  ASSERT_TRUE(cleared.ok()) << cleared.status().ToString();
  EXPECT_EQ(cleared_metrics.CounterValue("optimizer.stale_stats"), 0);
}

TEST_F(ObsQueryTest, DisabledTracerLeavesCountersUnchanged) {
  // Instrumentation must not alter the engine's observable behavior: the
  // deterministic work counters are identical with tracing on and off.
  ExecStats stats[2];
  for (int run = 0; run < 2; ++run) {
    Database db;
    Populate(&db);
    Tracer tracer(run == 1);
    QueryOptions options(ExecutionStrategy::kMagic);
    options.tracer = &tracer;
    auto result = db.Query(query_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    stats[run] = result->exec_stats;
  }
  EXPECT_EQ(stats[0].TotalWork(), stats[1].TotalWork());
  EXPECT_EQ(stats[0].rows_produced, stats[1].rows_produced);
  EXPECT_EQ(stats[0].cache_hits, stats[1].cache_hits);
  EXPECT_EQ(stats[0].cache_misses, stats[1].cache_misses);
}

}  // namespace
}  // namespace starmagic
