// Component micro-benchmarks (google-benchmark): parsing, QGM building,
// the rewrite pipeline with and without EMST, and end-to-end execution of
// the paper's query D per strategy. Useful for tracking optimizer overhead
// (the paper stresses that EMST must coexist with optimizer pruning).

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "qgm/builder.h"
#include "sql/parser.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

const char* kQueryD =
    "SELECT d.deptname, s.workdept, s.avgsalary "
    "FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    EmpDeptConfig config;
    config.num_departments = 200;
    config.num_employees = BenchObs::Smoke() ? 500 : 10000;
    config.num_projects = BenchObs::Smoke() ? 100 : 2000;
    Status s = LoadEmpDept(d, config);
    if (s.ok()) s = CreateBenchViews(d);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      std::abort();
    }
    return d;
  }();
  return db;
}

void BM_ParseQueryD(benchmark::State& state) {
  for (auto _ : state) {
    auto r = ParseQuery(kQueryD);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseQueryD);

void BM_BuildQgm(benchmark::State& state) {
  Database* db = SharedDb();
  auto blob = ParseQuery(kQueryD);
  for (auto _ : state) {
    QgmBuilder builder(db->catalog());
    auto g = builder.Build(**blob);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BuildQgm);

void BM_OptimizePipeline(benchmark::State& state) {
  Database* db = SharedDb();
  ExecutionStrategy strategy = static_cast<ExecutionStrategy>(state.range(0));
  for (auto _ : state) {
    auto r = db->Explain(kQueryD, QueryOptions(strategy));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OptimizePipeline)
    ->Arg(static_cast<int>(ExecutionStrategy::kOriginal))
    ->Arg(static_cast<int>(ExecutionStrategy::kMagic));

// Compile and execute through Query(), timing execution only (manual time
// from QueryResult::exec_ms), as Table 1 does.
void BM_ExecuteQueryD(benchmark::State& state) {
  Database* db = SharedDb();
  QueryOptions options(static_cast<ExecutionStrategy>(state.range(0)));
  for (auto _ : state) {
    auto m = MeasureQuery(db, kQueryD, options);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      break;
    }
    state.SetIterationTime(m->exec_ms / 1000.0);
  }
}
BENCHMARK(BM_ExecuteQueryD)
    ->UseManualTime()
    ->Arg(static_cast<int>(ExecutionStrategy::kOriginal))
    ->Arg(static_cast<int>(ExecutionStrategy::kCorrelated))
    ->Arg(static_cast<int>(ExecutionStrategy::kMagic));

// One traced run of query D. Benchmark iterations run untraced —
// google-benchmark repeats until timings stabilize, and a span per
// iteration would make the trace unbounded.
void TracedWarmup() {
  BenchObs obs("microbench");
  if (obs.tracer() == nullptr) return;
  (void)MeasureQuery(SharedDb(), kQueryD, obs.Options());
}

// One deterministic run of query D per strategy for the regression
// harness (BENCH_microbench.json). Separate from the benchmark iterations,
// whose timings are machine-noisy by design.
void EmitBenchJson() {
  BenchJson report("microbench", BenchObs::Smoke() ? 500 : 10000);
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
        ExecutionStrategy::kMagic}) {
    auto m = MeasureQuery(SharedDb(), kQueryD, QueryOptions(strategy));
    if (!m.ok()) continue;
    report.Add({"queryD", StrategyName(strategy), m->work(), m->exec_ms,
                m->rows()});
  }
}

}  // namespace
}  // namespace starmagic::bench

int main(int argc, char** argv) {
  starmagic::bench::TracedWarmup();
  starmagic::bench::EmitBenchJson();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
