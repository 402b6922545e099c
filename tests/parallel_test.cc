#include "parallel/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "parallel/morsel.h"

namespace starmagic {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool unit tests.
// ---------------------------------------------------------------------------

TEST(MorselQueueTest, BoundariesDependOnlyOnTotalAndSize) {
  MorselQueue q;
  q.Reset(100, 16);
  EXPECT_EQ(q.num_morsels(), 7);
  int64_t morsel, begin, end;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  while (q.Next(&morsel, &begin, &end)) {
    EXPECT_EQ(morsel, static_cast<int64_t>(ranges.size()));
    ranges.emplace_back(begin, end);
  }
  ASSERT_EQ(ranges.size(), 7u);
  EXPECT_EQ(ranges.front().first, 0);
  EXPECT_EQ(ranges.back().second, 100);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);  // contiguous
  }
}

class WorkerPoolCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkerPoolCoverageTest, EveryIndexProcessedExactlyOnce) {
  WorkerPool pool(GetParam());
  constexpr int64_t kTotal = 1000;
  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& h : hits) h.store(0);
  Status s = pool.ForEachMorsel(
      kTotal, 37, [&](int64_t, int64_t begin, int64_t end, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, pool.num_threads());
        for (int64_t i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
        return Status::OK();
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (int64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.stats().tasks, 1);
  EXPECT_EQ(pool.stats().morsels, (kTotal + 36) / 37);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkerPoolCoverageTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(WorkerPoolTest, EmptyRangeIsANoOp) {
  WorkerPool pool(4);
  int calls = 0;
  Status s = pool.ForEachMorsel(0, 16, [&](int64_t, int64_t, int64_t, int) {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
}

TEST(WorkerPoolTest, ReportsLowestFailingMorselError) {
  // Morsels 2 and 5 fail; a sequential in-order run would hit morsel 2
  // first, so every thread count must report morsel 2's error.
  for (int threads : {1, 2, 8}) {
    WorkerPool pool(threads);
    Status s = pool.ForEachMorsel(
        100, 10, [&](int64_t morsel, int64_t, int64_t, int) {
          if (morsel == 2 || morsel == 5) {
            return Status::ExecutionError(
                StrCat("boom at morsel ", morsel));
          }
          return Status::OK();
        });
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("boom at morsel 2"), std::string::npos)
        << "threads=" << threads << ": " << s.ToString();
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossLoops) {
  WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    Status s = pool.ForEachMorsel(
        200, 7, [&](int64_t, int64_t begin, int64_t end, int) {
          int64_t local = 0;
          for (int64_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local);
          return Status::OK();
        });
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(sum.load(), 199 * 200 / 2);
  }
  EXPECT_EQ(pool.stats().tasks, 50);
}

TEST(WorkerPoolTest, CountersAreSafeFromWorkerThreads) {
  // Counter::Add is the one metrics entry point documented as safe from
  // workers; hammer one counter from all threads and check the total.
  MetricsRegistry metrics;
  Counter* counter = metrics.counter("parallel.test_hammer");
  WorkerPool pool(8);
  constexpr int64_t kTotal = 10000;
  Status s = pool.ForEachMorsel(
      kTotal, 13, [&](int64_t, int64_t begin, int64_t end, int) {
        for (int64_t i = begin; i < end; ++i) counter->Add(1);
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(counter->value(), kTotal);
}

// ---------------------------------------------------------------------------
// SpanBuffer merge semantics.
// ---------------------------------------------------------------------------

TEST(SpanBufferTest, MergePreservesNestingAndAssignsTid) {
  Tracer tracer(true);
  int query_span = tracer.BeginSpan("query");

  SpanBuffer buffer;
  int outer = buffer.BeginSpan("worker loop");
  buffer.SetAttribute(outer, "morsels", int64_t{3});
  int inner = buffer.BeginSpan("probe");
  buffer.EndSpan(inner);
  buffer.EndSpan(outer);

  tracer.MergeSpanBuffer(buffer, /*tid=*/5);
  tracer.EndSpan(query_span);

  ASSERT_EQ(tracer.spans().size(), 3u);
  const SpanRecord& merged_outer = tracer.spans()[1];
  const SpanRecord& merged_inner = tracer.spans()[2];
  // Buffer roots are parented under the innermost open span at merge time.
  EXPECT_EQ(merged_outer.parent_id, query_span);
  EXPECT_EQ(merged_inner.parent_id, merged_outer.id);
  EXPECT_EQ(merged_outer.tid, 5);
  EXPECT_EQ(merged_inner.tid, 5);
  EXPECT_EQ(tracer.spans()[0].tid, 1);  // coordinator lane
  ASSERT_NE(merged_outer.FindAttribute("morsels"), nullptr);
  EXPECT_EQ(merged_outer.FindAttribute("morsels")->i, 3);
  EXPECT_TRUE(merged_outer.closed());
  EXPECT_TRUE(merged_inner.closed());
}

TEST(SpanBufferTest, MergeIntoDisabledTracerIsNoOp) {
  Tracer tracer;  // disabled
  SpanBuffer buffer;
  buffer.EndSpan(buffer.BeginSpan("x"));
  tracer.MergeSpanBuffer(buffer, 2);
  EXPECT_TRUE(tracer.spans().empty());
}

// ---------------------------------------------------------------------------
// Executor determinism: identical rows (including order) and bit-identical
// work counters at any thread count. Tables are sized well above the test
// morsel size so every parallel path actually engages.
// ---------------------------------------------------------------------------

struct RunOutcome {
  Status status = Status::OK();
  Table table;
  ExecStats stats;
  std::map<int, BoxExecStats> box_stats;
  ParallelStats parallel;
};

void ExpectSameStats(const ExecStats& a, const ExecStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << label;
  EXPECT_EQ(a.rows_produced, b.rows_produced) << label;
  EXPECT_EQ(a.join_probes, b.join_probes) << label;
  EXPECT_EQ(a.box_evaluations, b.box_evaluations) << label;
  EXPECT_EQ(a.fixpoint_iterations, b.fixpoint_iterations) << label;
  EXPECT_EQ(a.index_probes, b.index_probes) << label;
  EXPECT_EQ(a.index_rows_fetched, b.index_rows_fetched) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << label;
}

void ExpectSameRowsInOrder(const Table& a, const Table& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.rows()[static_cast<size_t>(i)],
              b.rows()[static_cast<size_t>(i)])
        << label << " row " << i;
  }
}

class ParallelExecutorTest : public ::testing::Test {
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

  /// Optimizes `sql` fresh and executes it with `threads` workers and a
  /// small morsel size so the 500-row tables split into many morsels.
  RunOutcome Run(const std::string& sql, int threads,
                 QueryOptions qopts = QueryOptions(),
                 int64_t max_rows_per_box = 200'000'000) {
    RunOutcome out;
    auto p = db_.Explain(sql, qopts);
    EXPECT_TRUE(p.ok()) << sql << " -> " << p.status().ToString();
    if (!p.ok()) {
      out.status = p.status();
      return out;
    }
    ExecOptions eo;
    eo.num_threads = threads;
    eo.morsel_size = 16;
    eo.collect_box_stats = true;
    eo.max_rows_per_box = max_rows_per_box;
    Executor executor(p->graph.get(), db_.catalog(), eo);
    auto t = executor.Run();
    out.status = t.status();
    if (t.ok()) out.table = std::move(t.value());
    out.stats = executor.stats();
    out.box_stats = executor.box_stats();
    out.parallel = executor.parallel_stats();
    return out;
  }

  /// Runs `sql` at 1, 2, and 8 threads and asserts identical rows (in
  /// order) and bit-identical ExecStats.
  void ExpectDeterministic(const std::string& sql,
                           QueryOptions qopts = QueryOptions()) {
    RunOutcome seq = Run(sql, 1, qopts);
    ASSERT_TRUE(seq.status.ok()) << sql << " -> " << seq.status.ToString();
    for (int threads : {2, 8}) {
      RunOutcome par = Run(sql, threads, qopts);
      std::string label = StrCat(sql, " @ threads=", threads);
      ASSERT_TRUE(par.status.ok()) << label << " -> "
                                   << par.status.ToString();
      ExpectSameRowsInOrder(seq.table, par.table, label);
      ExpectSameStats(seq.stats, par.stats, label);
    }
  }

  Database db_;
};

TEST_F(ParallelExecutorTest, FilterScanIsDeterministic) {
  // No ORDER BY: the determinism contract promises the *sequential* row
  // order at every thread count, not merely the same bag.
  ExpectDeterministic("SELECT id, amount FROM fact WHERE amount > 100");
}

TEST_F(ParallelExecutorTest, HashJoinIsDeterministic) {
  ExpectDeterministic(
      "SELECT f.id, d.label FROM fact f, dim d "
      "WHERE f.grp = d.grp AND f.amount > 50");
}

TEST_F(ParallelExecutorTest, NonEquiJoinIsDeterministic) {
  // No usable equality predicate: exercises the parallel nested-loop path.
  ExpectDeterministic(
      "SELECT f.id, d.grp FROM fact f, dim d "
      "WHERE f.grp < d.grp AND f.id < 100");
}

TEST_F(ParallelExecutorTest, IndexProbeIsDeterministic) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX fact_grp ON fact (grp)").ok());
  RunOutcome seq = Run(
      "SELECT f.id FROM dim d, fact f WHERE d.grp = f.grp", 1);
  ASSERT_TRUE(seq.status.ok());
  // The plan must actually have used the index for this test to mean
  // anything.
  ASSERT_GT(seq.stats.index_probes, 0);
  ExpectDeterministic("SELECT f.id FROM dim d, fact f WHERE d.grp = f.grp");
}

TEST_F(ParallelExecutorTest, IndexRangeProbeIsDeterministic) {
  ASSERT_TRUE(
      db_.Execute("CREATE INDEX fact_id ON fact (id) USING ORDERED").ok());
  // dim drives: its 23 combinations (more than one 16-row morsel) each
  // probe the ordered index for f.id < d.grp.
  const char* sql = "SELECT f.id, d.grp FROM dim d, fact f WHERE f.id < d.grp";
  RunOutcome par = Run(sql, 8);
  ASSERT_TRUE(par.status.ok()) << par.status.ToString();
  ASSERT_GT(par.stats.index_probes, 0);
  ASSERT_GT(par.parallel.tasks, 0);
  ExpectDeterministic(sql);
}

TEST_F(ParallelExecutorTest, BoxRowsOutReconcilesWithRowsProduced) {
  for (int threads : {1, 2, 8}) {
    RunOutcome out = Run(
        "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.grp",
        threads);
    ASSERT_TRUE(out.status.ok());
    int64_t sum = 0;
    for (const auto& [id, b] : out.box_stats) sum += b.rows_out;
    EXPECT_EQ(sum, out.stats.rows_produced) << "threads=" << threads;
  }
}

TEST_F(ParallelExecutorTest, ParallelStatsPopulatedOnlyWhenParallel) {
  RunOutcome seq = Run("SELECT id FROM fact WHERE amount > 10", 1);
  ASSERT_TRUE(seq.status.ok());
  EXPECT_EQ(seq.parallel.tasks, 0);
  RunOutcome par = Run("SELECT id FROM fact WHERE amount > 10", 4);
  ASSERT_TRUE(par.status.ok());
  EXPECT_GT(par.parallel.tasks, 0);
  EXPECT_GT(par.parallel.morsels, 0);
}

TEST_F(ParallelExecutorTest, RowLimitErrorIsDeterministic) {
  // Each join step kind produces several hundred combinations; a 100-row
  // cap must fail identically at every thread count (per-morsel caps +
  // post-merge total check). The index is created only before the query
  // that probes it, so the earlier queries keep their step kinds.
  struct Case {
    const char* setup;
    const char* sql;
  };
  for (const Case& c : {
           Case{nullptr,  // hash probe
                "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.grp"},
           Case{nullptr,  // nested loop
                "SELECT f.id, d.grp FROM fact f, dim d WHERE f.grp < d.grp"},
           Case{nullptr,  // filter scan
                "SELECT id FROM fact WHERE amount > 10"},
           Case{"CREATE INDEX fact_grp ON fact (grp)",  // index equality
                "SELECT f.id FROM dim d, fact f WHERE d.grp = f.grp"},
       }) {
    if (c.setup != nullptr) {
      ASSERT_TRUE(db_.Execute(c.setup).ok());
    }
    RunOutcome seq = Run(c.sql, 1, QueryOptions(), /*max_rows_per_box=*/100);
    ASSERT_FALSE(seq.status.ok()) << c.sql;
    for (int threads : {2, 8}) {
      RunOutcome par = Run(c.sql, threads, QueryOptions(),
                           /*max_rows_per_box=*/100);
      ASSERT_FALSE(par.status.ok()) << c.sql << " threads=" << threads;
      EXPECT_EQ(par.status.ToString(), seq.status.ToString()) << c.sql;
    }
  }
}

// ---------------------------------------------------------------------------
// Recursive fixpoints: parallel joins inside each iteration; the iteration
// barrier keeps the round structure (and thus fixpoint_iterations) intact.
// ---------------------------------------------------------------------------

class ParallelRecursiveTest : public ::testing::Test {
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
    // A long chain plus branches: enough rows per iteration to engage the
    // parallel join paths at morsel_size 16, and a deep fixpoint.
    Table* edge = db_.catalog()->GetTable("edge");
    for (int i = 0; i < 60; ++i) {
      edge->AppendUnchecked(Row{Value::Int(i), Value::Int(i + 1)});
    }
    for (int i = 0; i < 30; ++i) {
      edge->AppendUnchecked(Row{Value::Int(i), Value::Int(100 + i)});
    }
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  RunOutcome Run(const std::string& sql, int threads,
                 const QueryOptions& qopts) {
    RunOutcome out;
    auto p = db_.Explain(sql, qopts);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    if (!p.ok()) {
      out.status = p.status();
      return out;
    }
    ExecOptions eo;
    eo.num_threads = threads;
    eo.morsel_size = 16;
    Executor executor(p->graph.get(), db_.catalog(), eo);
    auto t = executor.Run();
    out.status = t.status();
    if (t.ok()) out.table = std::move(t.value());
    out.stats = executor.stats();
    return out;
  }

  void ExpectDeterministic(const std::string& sql,
                           const QueryOptions& qopts) {
    RunOutcome seq = Run(sql, 1, qopts);
    ASSERT_TRUE(seq.status.ok()) << seq.status.ToString();
    ASSERT_GT(seq.stats.fixpoint_iterations, 2);
    for (int threads : {2, 8}) {
      RunOutcome par = Run(sql, threads, qopts);
      std::string label = StrCat(sql, " @ threads=", threads);
      ASSERT_TRUE(par.status.ok()) << label;
      ExpectSameRowsInOrder(seq.table, par.table, label);
      ExpectSameStats(seq.stats, par.stats, label);
    }
  }

  Database db_;
};

TEST_F(ParallelRecursiveTest, FullClosureIsDeterministic) {
  ExpectDeterministic("SELECT src, dst FROM tc",
                      QueryOptions(ExecutionStrategy::kOriginal));
}

TEST_F(ParallelRecursiveTest, MagicRestrictedFixpointIsDeterministic) {
  QueryOptions magic(ExecutionStrategy::kMagic);
  magic.pipeline.cost_compare = false;  // force the magic plan
  ExpectDeterministic("SELECT dst FROM tc WHERE src = 3", magic);
}

// ---------------------------------------------------------------------------
// Full-stack plumbing: QueryOptions::num_threads reaches the executor and
// the parallel.* metrics, and results agree with the sequential run even
// at the default morsel size.
// ---------------------------------------------------------------------------

TEST(ParallelEngineTest, QueryOptionsThreadsAreDeterministicEndToEnd) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE n (v INTEGER);
  )sql")
                  .ok());
  Table* n = db.catalog()->GetTable("n");
  // Above the default morsel size (2048) so Query()-level runs parallelize
  // without test-only knobs.
  for (int i = 0; i < 5000; ++i) n->AppendUnchecked(Row{Value::Int(i)});
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  const char* sql = "SELECT v FROM n WHERE v > 99";
  QueryOptions seq_opts;
  seq_opts.num_threads = 1;
  auto seq = db.Query(sql, seq_opts);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  MetricsRegistry metrics;
  QueryOptions par_opts;
  par_opts.num_threads = 4;
  par_opts.metrics = &metrics;
  auto par = db.Query(sql, par_opts);
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  ExpectSameRowsInOrder(seq->table, par->table, "end-to-end");
  ExpectSameStats(seq->exec_stats, par->exec_stats, "end-to-end");
  EXPECT_GT(metrics.CounterValue("parallel.tasks"), 0);
  EXPECT_GT(metrics.CounterValue("parallel.morsels"), 0);
}

TEST(ParallelEngineTest, ExplainAnalyzeReportsThreadCount) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER);
    INSERT INTO t VALUES (1), (2), (3);
  )sql")
                  .ok());
  QueryOptions opts;
  opts.num_threads = 4;
  auto r = db.Query("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->analyze_report.find("threads=4"), std::string::npos)
      << r->analyze_report;
}

// Worker spans land in the trace with one lane per worker.
TEST(ParallelEngineTest, WorkerSpansMergeIntoTrace) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE n (v INTEGER)").ok());
  Table* n = db.catalog()->GetTable("n");
  for (int i = 0; i < 5000; ++i) n->AppendUnchecked(Row{Value::Int(i)});
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  Tracer tracer(true);
  QueryOptions opts;
  opts.num_threads = 4;
  opts.tracer = &tracer;
  auto r = db.Query("SELECT v FROM n WHERE v > 4000", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  bool saw_worker_span = false;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.category == "parallel") {
      saw_worker_span = true;
      EXPECT_GE(span.tid, 2);  // worker lanes start after the coordinator
    }
  }
  EXPECT_TRUE(saw_worker_span);
}

}  // namespace
}  // namespace starmagic
