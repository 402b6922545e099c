#include "governor/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "engine/database.h"
#include "obs/metrics.h"

namespace starmagic {
namespace {

// ---------------------------------------------------------------------------
// ResourceBudget / ResourceGovernor unit tests.
// ---------------------------------------------------------------------------

TEST(ResourceBudgetTest, ToStringRendersSetFieldsOnly) {
  EXPECT_EQ(ResourceBudget::Unlimited().ToString(), "(unlimited)");
  ResourceBudget b;
  b.max_memory_bytes = 1024;
  b.max_output_rows = 10;
  std::string s = b.ToString();
  EXPECT_NE(s.find("mem=1024"), std::string::npos) << s;
  EXPECT_NE(s.find("rows=10"), std::string::npos) << s;
  EXPECT_EQ(s.find("time="), std::string::npos) << s;
  EXPECT_EQ(s.find("iters="), std::string::npos) << s;
  b.deadline_ms = 250;
  b.max_fixpoint_iterations = 7;
  s = b.ToString();
  EXPECT_NE(s.find("time=250ms"), std::string::npos) << s;
  EXPECT_NE(s.find("iters=7"), std::string::npos) << s;
}

TEST(ResourceGovernorTest, ReserveTracksUsedAndPeak) {
  ResourceGovernor gov(ResourceBudget::Unlimited());
  EXPECT_TRUE(gov.Reserve(100).ok());
  EXPECT_TRUE(gov.Reserve(200).ok());
  EXPECT_EQ(gov.used_bytes(), 300);
  EXPECT_EQ(gov.peak_bytes(), 300);
  gov.Release(250);
  EXPECT_EQ(gov.used_bytes(), 50);
  EXPECT_EQ(gov.peak_bytes(), 300);  // peak is a high-water mark
  EXPECT_TRUE(gov.Reserve(100).ok());
  EXPECT_EQ(gov.peak_bytes(), 300);  // 150 in use: peak unchanged
}

TEST(ResourceGovernorTest, ReserveOverLimitFailsWithLimitOnlyMessage) {
  ResourceBudget budget;
  budget.max_memory_bytes = 100;
  ResourceGovernor gov(budget);
  EXPECT_TRUE(gov.Reserve(64).ok());
  Status s = gov.Reserve(64);
  ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  // Limit only, never observed usage — the determinism contract.
  EXPECT_NE(s.message().find("limit 100 bytes"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(s.message().find("128"), std::string::npos) << s.ToString();
  EXPECT_EQ(gov.used_bytes(), 128);  // the failing charge sticks
}

TEST(ResourceGovernorTest, UnlimitedBudgetNeverAborts) {
  ResourceGovernor gov(ResourceBudget::Unlimited());
  EXPECT_TRUE(gov.Reserve(int64_t{1} << 40).ok());
  EXPECT_TRUE(gov.CheckPoint().ok());
  EXPECT_TRUE(gov.CheckFixpointIteration(kMaxFixpointIterations).ok());
  EXPECT_TRUE(gov.CheckOutputRows(1'000'000'000).ok());
}

TEST(ResourceGovernorTest, PreCancelledTokenTripsCheckPoint) {
  CancellationToken token;
  token.Cancel();
  ResourceGovernor gov(ResourceBudget::Unlimited(), &token);
  Status s = gov.CheckPoint();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(s.message(), "query cancelled");
  EXPECT_EQ(gov.cancel_checks(), 1);
  EXPECT_EQ(gov.Stats().cancel_checks, 1);
}

TEST(ResourceGovernorTest, ExpiredDeadlineTripsCheckPoint) {
  ResourceBudget budget;
  budget.deadline_ms = 0.01;
  ResourceGovernor gov(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Status s = gov.CheckPoint();
  ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  EXPECT_NE(s.message().find("deadline exceeded"), std::string::npos);
}

TEST(ResourceGovernorTest, IterationAndRowBudgetsAreInclusive) {
  ResourceBudget budget;
  budget.max_fixpoint_iterations = 3;
  budget.max_output_rows = 10;
  ResourceGovernor gov(budget);
  EXPECT_TRUE(gov.CheckFixpointIteration(3).ok());  // at the limit: fine
  Status iters = gov.CheckFixpointIteration(4);
  ASSERT_EQ(iters.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(iters.message().find("limit 3"), std::string::npos);
  EXPECT_TRUE(gov.CheckOutputRows(10).ok());
  Status rows = gov.CheckOutputRows(11);
  ASSERT_EQ(rows.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rows.message().find("limit 10 rows"), std::string::npos);
}

TEST(ResourceGovernorTest, DefaultBudgetCapsFixpointRoundsAtEngineCeiling) {
  // A budget that leaves max_fixpoint_iterations at 0 still ends a
  // recursion that never converges, with a typed error naming the limit.
  ResourceGovernor gov(ResourceBudget{});
  EXPECT_TRUE(gov.CheckFixpointIteration(100'000).ok());
  Status s = gov.CheckFixpointIteration(100'001);
  ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("limit 100000"), std::string::npos)
      << s.ToString();
}

TEST(ResourceGovernorTest, TableBytesSumsRowBytes) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER, s VARCHAR);
    INSERT INTO t VALUES (1, 'x'), (2, 'hello');
  )sql")
                  .ok());
  const Table* t = db.catalog()->GetTable("t");
  int64_t expect = 0;
  for (const Row& row : t->rows()) expect += RowBytes(row);
  EXPECT_GT(expect, 0);
  EXPECT_EQ(TableBytes(*t), expect);
}

// ---------------------------------------------------------------------------
// Executor-level determinism: a budget violation must produce the same
// typed Status — same code, same message — at every thread count, and a
// governed successful run must report the same peak_bytes at every thread
// count (the PR 6 determinism contract extended to accounting).
// ---------------------------------------------------------------------------

struct GovOutcome {
  Status status = Status::OK();
  Table table;
  ExecStats stats;
  GovernorStats governor;
};

void ExpectSameRows(const Table& a, const Table& b, const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.rows()[static_cast<size_t>(i)],
              b.rows()[static_cast<size_t>(i)])
        << label << " row " << i;
  }
}

class GovernorExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE fact (id INTEGER, grp INTEGER, amount DOUBLE);
      CREATE TABLE dim (grp INTEGER, label VARCHAR);
    )sql")
                    .ok());
    Table* fact = db_.catalog()->GetTable("fact");
    for (int i = 0; i < 500; ++i) {
      fact->AppendUnchecked(Row{Value::Int(i), Value::Int(i % 23),
                                Value::Double(i * 0.5)});
    }
    Table* dim = db_.catalog()->GetTable("dim");
    for (int g = 0; g < 23; ++g) {
      dim->AppendUnchecked(Row{Value::Int(g), Value::String(StrCat("g", g))});
    }
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  /// Optimizes `sql` fresh and executes it under a governor with `budget`
  /// and `threads` workers at a small morsel size, so the 500-row tables
  /// split into many morsels and the parallel accounting paths engage.
  GovOutcome Run(const std::string& sql, int threads,
                 const ResourceBudget& budget,
                 const CancellationToken* token = nullptr,
                 QueryOptions qopts = QueryOptions()) {
    GovOutcome out;
    auto p = db_.Explain(sql, qopts);
    EXPECT_TRUE(p.ok()) << sql << " -> " << p.status().ToString();
    if (!p.ok()) {
      out.status = p.status();
      return out;
    }
    ResourceGovernor governor(budget, token);
    ExecOptions eo;
    eo.num_threads = threads;
    eo.morsel_size = 16;
    eo.governor = &governor;
    Executor executor(p->graph.get(), db_.catalog(), eo);
    auto t = executor.Run();
    out.status = t.status();
    if (t.ok()) out.table = std::move(t.value());
    out.stats = executor.stats();
    out.governor = governor.Stats();
    return out;
  }

  /// Runs `sql` under `budget` at 1, 2, and 8 threads, asserts every run
  /// fails with `code`, and that the full Status text is bit-identical.
  void ExpectDeterministicFailure(const std::string& sql,
                                  const ResourceBudget& budget,
                                  StatusCode code,
                                  const CancellationToken* token = nullptr,
                                  QueryOptions qopts = QueryOptions()) {
    GovOutcome seq = Run(sql, 1, budget, token, qopts);
    ASSERT_FALSE(seq.status.ok()) << sql << " unexpectedly succeeded";
    EXPECT_EQ(seq.status.code(), code) << seq.status.ToString();
    for (int threads : {2, 8}) {
      GovOutcome par = Run(sql, threads, budget, token, qopts);
      std::string label = StrCat(sql, " @ threads=", threads);
      ASSERT_FALSE(par.status.ok()) << label;
      EXPECT_EQ(par.status.ToString(), seq.status.ToString()) << label;
    }
  }

  Database db_;
};

TEST_F(GovernorExecTest, MemoryCapOnJoinFailsIdenticallyAcrossThreads) {
  // 23 dim combos survive the first step, then the hash build over the
  // 500-row fact side blows the cap mid-build. Wherever the charge trips,
  // the message names only the limit, so it compares equal at any thread
  // count.
  ResourceBudget budget;
  budget.max_memory_bytes = 5000;
  ExpectDeterministicFailure(
      "SELECT d.grp, f.id FROM dim d, fact f WHERE d.grp = f.grp", budget,
      StatusCode::kResourceExhausted);
}

TEST_F(GovernorExecTest, PreCancelledTokenFailsIdenticallyAcrossThreads) {
  CancellationToken token;
  token.Cancel();
  ExpectDeterministicFailure(
      "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.grp",
      ResourceBudget::Unlimited(), StatusCode::kCancelled, &token);
}

TEST_F(GovernorExecTest, OutputRowBudgetFailsIdenticallyAcrossThreads) {
  // The join produces ~500 rows; a 100-row budget must abort identically.
  ResourceBudget budget;
  budget.max_output_rows = 100;
  ExpectDeterministicFailure(
      "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.grp", budget,
      StatusCode::kResourceExhausted);
}

TEST_F(GovernorExecTest, ExpiredDeadlineFailsIdenticallyAcrossThreads) {
  // 1 nanosecond: already expired by the first cooperative check.
  ResourceBudget budget;
  budget.deadline_ms = 1e-6;
  ExpectDeterministicFailure(
      "SELECT f.id FROM fact f WHERE f.amount > 10", budget,
      StatusCode::kDeadlineExceeded);
}

TEST_F(GovernorExecTest, GovernedSuccessIsDeterministicIncludingPeak) {
  // One query per join step kind. Each shape's index exists only while
  // that shape runs, so the other shapes keep their step kinds.
  struct Shape {
    const char* name;
    const char* setup;
    const char* teardown;
    const char* sql;
    QueryOptions qopts;
    bool probes_index;
  };
  const Shape shapes[] = {
      {"hash", nullptr, nullptr,
       "SELECT f.id, d.label FROM fact f, dim d "
       "WHERE f.grp = d.grp AND f.amount > 50",
       QueryOptions(), false},
      {"index-equality", "CREATE INDEX fact_grp ON fact (grp)",
       "DROP INDEX fact_grp",
       "SELECT f.id FROM dim d, fact f WHERE d.grp = f.grp", QueryOptions(),
       true},
      {"index-range", "CREATE INDEX fact_id ON fact (id) USING ORDERED",
       "DROP INDEX fact_id",
       "SELECT f.id, d.grp FROM dim d, fact f WHERE f.id < d.grp",
       QueryOptions(), true},
      {"non-equi nested loop", nullptr, nullptr,
       "SELECT f.id, d.grp FROM fact f, dim d "
       "WHERE f.grp < d.grp AND f.id < 100",
       QueryOptions(), false},
      {"filter scan", nullptr, nullptr,
       "SELECT id, amount FROM fact WHERE amount > 100", QueryOptions(),
       false},
      // The Correlated strategy moves the join predicate into the view, so
      // the view is evaluated once per dim row inside the join step.
      {"correlated nested loop",
       "CREATE VIEW grp_total (grp, total) AS "
       "SELECT grp, SUM(amount) FROM fact GROUP BY grp",
       "DROP VIEW grp_total",
       "SELECT d.label, v.total FROM dim d, grp_total v WHERE d.grp = v.grp",
       QueryOptions(ExecutionStrategy::kCorrelated), false},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    if (shape.setup != nullptr) {
      ASSERT_TRUE(db_.Execute(shape.setup).ok());
    }
    GovOutcome seq = Run(shape.sql, 1, ResourceBudget::Unlimited(), nullptr,
                         shape.qopts);
    ASSERT_TRUE(seq.status.ok()) << seq.status.ToString();
    EXPECT_GT(seq.table.num_rows(), 0);
    EXPECT_GT(seq.governor.peak_bytes, 0);
    EXPECT_GT(seq.governor.cancel_checks, 0);
    EXPECT_EQ(seq.stats.index_probes > 0, shape.probes_index);
    for (int threads : {2, 8}) {
      GovOutcome par = Run(shape.sql, threads, ResourceBudget::Unlimited(),
                           nullptr, shape.qopts);
      std::string label = StrCat("threads=", threads);
      ASSERT_TRUE(par.status.ok()) << label << " " << par.status.ToString();
      ExpectSameRows(seq.table, par.table, label);
      // Peak accounting is content-based and releases are coordinator-only,
      // so the high-water mark is thread-count invariant.
      EXPECT_EQ(par.governor.peak_bytes, seq.governor.peak_bytes) << label;
    }
    if (shape.teardown != nullptr) {
      ASSERT_TRUE(db_.Execute(shape.teardown).ok());
    }
  }
}

TEST_F(GovernorExecTest, GenerousBudgetDoesNotAbort) {
  ResourceBudget budget;
  budget.max_memory_bytes = int64_t{1} << 30;
  budget.deadline_ms = 60'000;
  budget.max_fixpoint_iterations = 1'000'000;
  budget.max_output_rows = 1'000'000;
  for (int threads : {1, 8}) {
    GovOutcome out = Run(
        "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.grp",
        threads, budget);
    ASSERT_TRUE(out.status.ok())
        << "threads=" << threads << " " << out.status.ToString();
    EXPECT_LE(out.governor.peak_bytes, budget.max_memory_bytes);
  }
}

// ---------------------------------------------------------------------------
// Recursive fixpoints under a governor: iteration budgets and deadlines
// trip mid-fixpoint, identically at every thread count, and the fixpoint
// state accounting keeps peak_bytes thread-invariant on success.
// ---------------------------------------------------------------------------

class GovernorRecursiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE edge (src INTEGER, dst INTEGER);
      CREATE RECURSIVE VIEW tc (src, dst) AS
        SELECT src, dst FROM edge
        UNION
        SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
    )sql")
                    .ok());
    Table* edge = db_.catalog()->GetTable("edge");
    for (int i = 0; i < 60; ++i) {
      edge->AppendUnchecked(Row{Value::Int(i), Value::Int(i + 1)});
    }
    for (int i = 0; i < 30; ++i) {
      edge->AppendUnchecked(Row{Value::Int(i), Value::Int(100 + i)});
    }
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  GovOutcome Run(const std::string& sql, int threads,
                 const ResourceBudget& budget) {
    GovOutcome out;
    QueryOptions qopts(ExecutionStrategy::kOriginal);
    auto p = db_.Explain(sql, qopts);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    if (!p.ok()) {
      out.status = p.status();
      return out;
    }
    ResourceGovernor governor(budget);
    ExecOptions eo;
    eo.num_threads = threads;
    eo.morsel_size = 16;
    eo.governor = &governor;
    Executor executor(p->graph.get(), db_.catalog(), eo);
    auto t = executor.Run();
    out.status = t.status();
    if (t.ok()) out.table = std::move(t.value());
    out.stats = executor.stats();
    out.governor = governor.Stats();
    return out;
  }

  Database db_;
};

TEST_F(GovernorRecursiveTest, IterationBudgetTripsMidFixpointIdentically) {
  // The 60-edge chain needs far more than 2 rounds to close; the budget
  // aborts the fixpoint after round 3 (iterations > 2) at every thread
  // count with the same Status.
  ResourceBudget budget;
  budget.max_fixpoint_iterations = 2;
  GovOutcome seq = Run("SELECT src, dst FROM tc", 1, budget);
  ASSERT_FALSE(seq.status.ok());
  EXPECT_EQ(seq.status.code(), StatusCode::kResourceExhausted)
      << seq.status.ToString();
  EXPECT_NE(seq.status.message().find("fixpoint iteration budget"),
            std::string::npos)
      << seq.status.ToString();
  for (int threads : {2, 8}) {
    GovOutcome par = Run("SELECT src, dst FROM tc", threads, budget);
    ASSERT_FALSE(par.status.ok()) << "threads=" << threads;
    EXPECT_EQ(par.status.ToString(), seq.status.ToString())
        << "threads=" << threads;
  }
}

TEST_F(GovernorRecursiveTest, MemoryCapTripsMidFixpointIdentically) {
  // Enough budget for the edge scan, not for the growing delta/total
  // relations of the transitive closure.
  ResourceBudget budget;
  budget.max_memory_bytes = 8000;
  GovOutcome seq = Run("SELECT src, dst FROM tc", 1, budget);
  ASSERT_FALSE(seq.status.ok());
  EXPECT_EQ(seq.status.code(), StatusCode::kResourceExhausted)
      << seq.status.ToString();
  for (int threads : {2, 8}) {
    GovOutcome par = Run("SELECT src, dst FROM tc", threads, budget);
    ASSERT_FALSE(par.status.ok()) << "threads=" << threads;
    EXPECT_EQ(par.status.ToString(), seq.status.ToString())
        << "threads=" << threads;
  }
}

TEST_F(GovernorRecursiveTest, ExpiredDeadlineTripsMidFixpointIdentically) {
  ResourceBudget budget;
  budget.deadline_ms = 1e-6;
  GovOutcome seq = Run("SELECT src, dst FROM tc", 1, budget);
  ASSERT_FALSE(seq.status.ok());
  EXPECT_EQ(seq.status.code(), StatusCode::kDeadlineExceeded)
      << seq.status.ToString();
  for (int threads : {2, 8}) {
    GovOutcome par = Run("SELECT src, dst FROM tc", threads, budget);
    ASSERT_FALSE(par.status.ok()) << "threads=" << threads;
    EXPECT_EQ(par.status.ToString(), seq.status.ToString())
        << "threads=" << threads;
  }
}

TEST_F(GovernorRecursiveTest, RecursivePeakIsThreadInvariant) {
  GovOutcome seq = Run("SELECT src, dst FROM tc", 1,
                       ResourceBudget::Unlimited());
  ASSERT_TRUE(seq.status.ok()) << seq.status.ToString();
  ASSERT_GT(seq.stats.fixpoint_iterations, 2);
  EXPECT_GT(seq.governor.peak_bytes, 0);
  for (int threads : {2, 8}) {
    GovOutcome par = Run("SELECT src, dst FROM tc", threads,
                         ResourceBudget::Unlimited());
    ASSERT_TRUE(par.status.ok()) << par.status.ToString();
    ExpectSameRows(seq.table, par.table, StrCat("threads=", threads));
    EXPECT_EQ(par.governor.peak_bytes, seq.governor.peak_bytes)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Full-stack plumbing: QueryOptions::budget / cancel_token reach the
// executor; aborts surface as governor.* metrics and QueryLog entries;
// EXPLAIN ANALYZE shows the budget line.
// ---------------------------------------------------------------------------

class GovernorEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE n (v INTEGER)").ok());
    Table* n = db_.catalog()->GetTable("n");
    // Above the default morsel size (2048) so Query()-level runs
    // parallelize without test-only knobs.
    for (int i = 0; i < 5000; ++i) n->AppendUnchecked(Row{Value::Int(i)});
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  Database db_;
};

TEST_F(GovernorEngineTest, BudgetViolationIsIdenticalAtAnyThreadCount) {
  QueryOptions opts;
  opts.budget.max_output_rows = 50;  // the scan keeps ~4900 rows
  opts.num_threads = 1;
  auto seq = db_.Query("SELECT v FROM n WHERE v > 99", opts);
  ASSERT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kResourceExhausted)
      << seq.status().ToString();
  for (int threads : {2, 8}) {
    opts.num_threads = threads;
    auto par = db_.Query("SELECT v FROM n WHERE v > 99", opts);
    ASSERT_FALSE(par.ok()) << "threads=" << threads;
    EXPECT_EQ(par.status().ToString(), seq.status().ToString())
        << "threads=" << threads;
  }
}

TEST_F(GovernorEngineTest, AbortsAreCountedByReason) {
  MetricsRegistry metrics;
  QueryOptions opts;
  opts.metrics = &metrics;

  opts.budget.max_output_rows = 10;
  EXPECT_FALSE(db_.Query("SELECT v FROM n WHERE v > 99", opts).ok());
  opts.budget = ResourceBudget::Unlimited();

  opts.budget.deadline_ms = 1e-6;
  EXPECT_FALSE(db_.Query("SELECT v FROM n WHERE v > 99", opts).ok());
  opts.budget = ResourceBudget::Unlimited();

  CancellationToken token;
  token.Cancel();
  opts.cancel_token = &token;
  EXPECT_FALSE(db_.Query("SELECT v FROM n WHERE v > 99", opts).ok());
  opts.cancel_token = nullptr;

  EXPECT_TRUE(db_.Query("SELECT v FROM n WHERE v > 4990", opts).ok());

  EXPECT_EQ(metrics.CounterValue("governor.aborts.resource_exhausted"), 1);
  EXPECT_EQ(metrics.CounterValue("governor.aborts.deadline_exceeded"), 1);
  EXPECT_EQ(metrics.CounterValue("governor.aborts.cancelled"), 1);
  EXPECT_GT(metrics.CounterValue("governor.cancel_checks"), 0);
  auto it = metrics.histograms().find("governor.peak_bytes");
  ASSERT_NE(it, metrics.histograms().end());
  EXPECT_EQ(it->second.count(), 4);  // every query observes a peak
}

TEST_F(GovernorEngineTest, QueryLogRecordsPeakAndErrorStatus) {
  auto ok = db_.Query("SELECT v FROM n WHERE v > 99");
  ASSERT_TRUE(ok.ok());
  EXPECT_GT(ok->governor.peak_bytes, 0);
  const QueryLogEntry* entry = db_.query_log()->Latest();
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->peak_memory_bytes, ok->governor.peak_bytes);
  EXPECT_NE(entry->ToString().find("peak_mem="), std::string::npos)
      << entry->ToString();

  QueryOptions opts;
  opts.budget.max_output_rows = 10;
  ASSERT_FALSE(db_.Query("SELECT v FROM n WHERE v > 99", opts).ok());
  entry = db_.query_log()->Latest();
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->status.find("output row budget exceeded"),
            std::string::npos)
      << entry->status;
}

TEST_F(GovernorEngineTest, ExplainAnalyzeReportsBudgetAndPeak) {
  QueryOptions opts;
  opts.budget.max_memory_bytes = int64_t{1} << 30;
  auto r = db_.Query("EXPLAIN ANALYZE SELECT v FROM n WHERE v > 99", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->analyze_report.find("governor: budget=mem=1073741824"),
            std::string::npos)
      << r->analyze_report;
  EXPECT_NE(r->analyze_report.find("peak_bytes="), std::string::npos);
  EXPECT_NE(r->analyze_report.find("cancel_checks="), std::string::npos);
}

TEST_F(GovernorEngineTest, CancelledExplainAnalyzeReturnsCancelled) {
  CancellationToken token;
  token.Cancel();
  QueryOptions opts;
  opts.cancel_token = &token;
  auto r = db_.Query("EXPLAIN ANALYZE SELECT v FROM n WHERE v > 99", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
}

}  // namespace
}  // namespace starmagic
