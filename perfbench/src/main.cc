// End-to-end benchmark of Database::Query over three workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// One client drives a closed loop through the public Database API with
// default QueryOptions (kMagic, one thread, plan cache off for plain
// SELECT). The operation sequence is fixed by (seed, seconds); a run never
// stops on a timer. Every answer is checked afterwards against an oracle
// that does not run the EMST rewrite.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs each operation
// twice, interleaved: once through Database::Query and once through the
// layers' public entry points (ParseQuery, QgmBuilder::Build,
// OptimizeQuery, PlanCache, Executor::Run, Database::Execute) with a span
// around every call, checks that both paths return the same rows and
// work, and prints the per-layer metrics. The traced run takes half the
// operations, as it runs each twice. Spans are kept in memory and written
// to <out>/<workload>-trace.json (Chrome trace format) when the run ends;
// each run also writes its result to <out>/<workload>-seed<n>-*.json.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics ({"name": {"value": v, "unit": u}}).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner.h"
#include "workload.h"

namespace perfbench {
namespace {

using starmagic::Database;
using starmagic::PlanCacheStats;
using starmagic::Status;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// The highest of the usual percentiles with at least ten samples above it.
double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

// Reads are split into this many consecutive parts for read_tail_ms.
constexpr size_t kTailParts = 10;

// read_tail_ms: the median, over kTailParts consecutive parts of the run,
// of each part's TailPercentile of read latency. A burst of host stalls
// lands in one or two parts and moves the median little, while a slow path
// that hits a steady share of reads shows in every part.
double ReadTailMs(const std::vector<double>& reads_in_order, double* pct) {
  const size_t n = reads_in_order.size();
  *pct = TailPercentile(n / kTailParts);
  std::vector<double> tails;
  for (size_t k = 0; k < kTailParts; ++k) {
    std::vector<double> part(
        reads_in_order.begin() + static_cast<ptrdiff_t>(k * n / kTailParts),
        reads_in_order.begin() + static_cast<ptrdiff_t>((k + 1) * n / kTailParts));
    std::sort(part.begin(), part.end());
    tails.push_back(Percentile(part, *pct));
  }
  return Median(tails);
}

double RssPeakMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

bool IsRead(const Op& op) { return op.kind != OpKind::kWrite; }

// One set-up: corpus, PREPAREs and the read-only warm-up.
Status SetUp(Database* db, const Workload& w, uint64_t seed) {
  SM_RETURN_IF_ERROR(SetUpDatabase(db, w, seed));
  for (const Op& op : w.warmup) {
    OpRecord rec = RunOp(db, op);
    if (!rec.ok) return Status::Internal("warm-up failed: " + rec.error);
  }
  return Status::OK();
}

// Sets up kSetups databases one after another, keeping the last `keep`.
Status SetUpMany(const Workload& w, uint64_t seed, int keep,
                 std::vector<std::unique_ptr<Database>>* kept,
                 double* median_s) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    auto db = std::make_unique<Database>();
    int64_t start = NowNs();
    SM_RETURN_IF_ERROR(SetUp(db.get(), w, seed));
    times.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (i >= kSetups - keep) kept->push_back(std::move(db));
  }
  *median_s = Median(times);
  return Status::OK();
}

// End-to-end figures of one pass over the ops, from the per-op records.
struct Summary {
  std::vector<double> read_ms, write_ms;  ///< sorted latencies
  double tail_ms = 0, tail_pct = 0;       ///< read_tail_ms and its percentile
  double read_ns = 0;                     ///< summed read latency
  double work_per_op = 0;
  double peak_mb = 0;
  uint64_t results_hash = 0xcbf29ce484222325ULL;
};

Summary Summarize(const Workload& w, const std::vector<OpRecord>& records) {
  Summary s;
  double work = 0;
  int64_t peak = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const OpRecord& r = records[i];
    if (IsRead(w.ops[i])) {
      s.read_ms.push_back(static_cast<double>(r.ns) / 1e6);
      s.read_ns += static_cast<double>(r.ns);
      work += static_cast<double>(r.work);
      peak = std::max(peak, r.peak_bytes);
    } else {
      s.write_ms.push_back(static_cast<double>(r.ns) / 1e6);
    }
    s.results_hash = Fnv(s.results_hash, std::to_string(r.digest) + "/" +
                                             std::to_string(r.work) + "/" +
                                             std::to_string(r.peak_bytes));
  }
  s.tail_ms = ReadTailMs(s.read_ms, &s.tail_pct);
  std::sort(s.read_ms.begin(), s.read_ms.end());
  std::sort(s.write_ms.begin(), s.write_ms.end());
  s.work_per_op =
      s.read_ms.empty() ? 0 : work / static_cast<double>(s.read_ms.size());
  s.peak_mb = static_cast<double>(peak) / (1024.0 * 1024.0);
  return s;
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"op\": %lld, \"parent\": %d}}",
                  i > 0 ? ",\n" : "", kSpanNames[s.name],
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.op), s.parent);
    out << line;
  }
  out << "\n]}\n";
}

// Counts ops on which the decomposed path and Database::Query disagree in
// status, rows, work, governor peak or plan-cache outcome.
int64_t CheckIdentity(const Workload& w, const std::vector<OpRecord>& query,
                      const std::vector<OpRecord>& traced) {
  int64_t failures = 0;
  for (size_t i = 0; i < query.size(); ++i) {
    const OpRecord& a = query[i];
    const OpRecord& b = traced[i];
    if (a.ok != b.ok || a.digest != b.digest || a.rows != b.rows ||
        a.work != b.work || a.peak_bytes != b.peak_bytes ||
        a.plan_hit != b.plan_hit) {
      if (++failures <= 5) {
        std::fprintf(stderr, "op %zu: traced path differs from Query%s%s: %s\n",
                     i, b.ok ? "" : ": ", b.error.c_str(), w.ops[i].sql.c_str());
      }
    }
  }
  return failures;
}

double Per(double x, double d) { return d > 0 ? x / d : 0.0; }

// Per-layer metrics of the traced run. Times are span durations summed per
// layer and divided by the number of reads (writes by writes); shares are
// against the mean Database::Query latency of the same reads.
std::vector<Metric> LayerMetrics(const Summary& query,
                                 const std::vector<OpRecord>& traced,
                                 const std::vector<Span>& spans,
                                 const LayerCounts& c,
                                 const PlanCacheStats& cache,
                                 double resident_mb, double untraced_ns) {
  std::vector<double> us(kNumSpanNames, 0);
  double traced_ns = 0, hit_op_us = 0, hit_exec_us = 0;
  for (const Span& s : spans) {
    double d = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    us[static_cast<size_t>(s.name)] += d;
    if (s.name == kSpanOp) traced_ns += d * 1e3;
    if (traced[static_cast<size_t>(s.op)].plan_hit) {
      if (s.name == kSpanOp) hit_op_us += d;
      if (s.name == kSpanExec) hit_exec_us += d;
    }
  }
  double hits = 0;
  for (size_t i = 0; i < traced.size(); ++i) hits += traced[i].plan_hit ? 1 : 0;
  const double r = static_cast<double>(query.read_ms.size());
  const double writes = static_cast<double>(query.write_ms.size());
  const double query_us = Per(query.read_ns / 1e3, r);
  const double rule_us = c.rule_ms * 1e3;
  const double emst_us = c.emst_ms * 1e3;
  const double compile_us =
      us[kSpanParse] + us[kSpanBuild] + us[kSpanOptimize];
  const double layers_us = compile_us + us[kSpanLookup] + us[kSpanBind] +
                           us[kSpanInsert] + us[kSpanExec];
  const auto& e = c.exec;
  auto d = [](int64_t v) { return static_cast<double>(v); };
  return {
      {"sql.parse_us", Per(us[kSpanParse], r), "us"},
      {"qgm.build_us", Per(us[kSpanBuild], r), "us"},
      {"rewrite.rule_us", Per(rule_us, r), "us"},
      {"rewrite.fires_per_op", Per(d(c.rule_fires), r), "count"},
      {"rewrite.fire_ratio", Per(d(c.rule_fires), d(c.rule_attempts)),
       "ratio"},
      {"magic.emst_us", Per(emst_us, r), "us"},
      {"magic.emst_chosen_share", Per(d(c.emst_chosen), r), "ratio"},
      {"optimizer.compile_us", Per(us[kSpanOptimize], r), "us"},
      {"optimizer.other_us", Per(us[kSpanOptimize] - rule_us - emst_us, r),
       "us"},
      {"plan.hit_ratio", Per(hits, d(cache.hits + cache.misses)), "ratio"},
      {"plan.invalidations_per_write", Per(d(cache.invalidations), writes),
       "count"},
      {"plan.hit_us", Per(hit_op_us - hit_exec_us, hits), "us"},
      {"plan.resident_mb", resident_mb, "MiB"},
      {"exec.run_us", Per(us[kSpanExec], r), "us"},
      {"exec.ns_per_work", Per(us[kSpanExec] * 1e3, d(e.TotalWork())), "ns"},
      {"exec.rows_scanned_per_op", Per(d(e.rows_scanned), r), "count"},
      {"exec.rows_produced_per_op", Per(d(e.rows_produced), r), "count"},
      {"exec.join_probes_per_op", Per(d(e.join_probes), r), "count"},
      {"exec.box_evals_per_op", Per(d(e.box_evaluations), r), "count"},
      {"exec.fixpoint_iters_per_op", Per(d(e.fixpoint_iterations), r),
       "count"},
      {"exec.cache_hit_ratio",
       Per(d(e.cache_hits), d(e.cache_hits + e.cache_misses)), "ratio"},
      {"index.probes_per_op", Per(d(e.index_probes), r), "count"},
      {"index.rows_per_probe", Per(d(e.index_rows_fetched), d(e.index_probes)),
       "count"},
      {"catalog.write_us", Per(us[kSpanWrite], writes), "us"},
      {"governor.checks_per_op", Per(d(c.cancel_checks), r), "count"},
      {"engine.query_us", query_us, "us"},
      {"engine.overhead_us", query_us - Per(layers_us, r), "us"},
      {"engine.exec_share", Per(Per(us[kSpanExec], r), query_us), "ratio"},
      {"engine.compile_share", Per(Per(compile_us, r), query_us), "ratio"},
      {"trace.overhead_share", 1.0 - Per(untraced_ns, traced_ns), "ratio"},
  };
}

PlanCacheStats Delta(const PlanCacheStats& after, const PlanCacheStats& before) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.invalidations - before.invalidations,
          after.evictions - before.evictions};
}

int Run(const Args& args) {
  // The traced run executes every operation twice (Database::Query and the
  // decomposed path), so it takes half the sequence to last about as long.
  const Workload w = MakeWorkload(
      args.workload, args.seed,
      args.trace ? args.seconds / 2.0 : static_cast<double>(args.seconds));
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out);
  std::vector<std::unique_ptr<Database>> dbs;
  double setup_s = 0;
  if (Status st = SetUpMany(w, args.seed, args.trace ? 2 : 1, &dbs, &setup_s);
      !st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Database* db = dbs.back().get();
  Database* traced_db = dbs.front().get();  // the same database untraced
  const PlanCacheStats cache_before = db->plan_cache()->stats();
  const PlanCacheStats traced_before = traced_db->plan_cache()->stats();

  const size_t n = w.ops.size();
  std::vector<OpRecord> records(n);
  std::vector<OpRecord> traced;
  TracedRunner runner(traced_db);
  LayerCounts counts;
  double untraced_ns = 0;
  if (args.trace) {
    traced.resize(n);
    runner.Reserve(n * 8);
  }
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    if (!args.trace) {
      records[i] = RunOp(db, w.ops[i]);
      continue;
    }
    // Alternate which path goes first so that drift in host speed falls on
    // both alike.
    const int64_t id = static_cast<int64_t>(i);
    if (i % 2 == 1) traced[i] = runner.Run(w.ops[i], id, &counts);
    records[i] = RunOp(db, w.ops[i]);
    untraced_ns += static_cast<double>(records[i].ns);
    if (i % 2 == 0) traced[i] = runner.Run(w.ops[i], id, &counts);
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const double rss_mb = RssPeakMb();
  const PlanCacheStats cache = Delta(db->plan_cache()->stats(), cache_before);
  const PlanCacheStats traced_cache =
      Delta(traced_db->plan_cache()->stats(), traced_before);
  const double resident_mb =
      static_cast<double>(db->plan_cache()->resident_bytes()) /
      (1024.0 * 1024.0);
  dbs.clear();

  const Summary sum = Summarize(w, records);
  int64_t failed = VerifyAgainstOracle(w, args.seed, records);
  uint64_t ops_hash = 0xcbf29ce484222325ULL;
  for (const Op& op : w.ops) ops_hash = Fnv(ops_hash, op.sql);
  const size_t reads = sum.read_ms.size();

  std::printf("workload %s seed %llu: %zu ops (%zu reads, %zu writes), "
              "oracle %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), n,
              reads, sum.write_ms.size(), starmagic::StrategyName(w.oracle));
  std::printf("read_tail_ms is the median over %zu parts of p%g of %zu "
              "reads each\n",
              kTailParts, sum.tail_pct, reads / kTailParts);
  for (size_t t = 0; t < w.templates.size(); ++t) {
    std::vector<double> ms;
    for (size_t i = 0; i < n; ++i) {
      if (w.ops[i].tmpl == static_cast<int>(t)) {
        ms.push_back(static_cast<double>(records[i].ns) / 1e6);
      }
    }
    double total = 0;
    for (double x : ms) total += x;
    std::sort(ms.begin(), ms.end());
    std::printf("  %-18s %6zu ops  p50 %9.3f ms  total %8.1f ms\n",
                w.templates[t].c_str(), ms.size(), Percentile(ms, 50), total);
  }
  std::printf("fingerprint ops=%016llx results=%016llx work_per_op=%.6f "
              "peak_query_mb=%.6f\n",
              static_cast<unsigned long long>(ops_hash),
              static_cast<unsigned long long>(sum.results_hash),
              sum.work_per_op, sum.peak_mb);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", static_cast<double>(n) / wall_s, "1/s"},
        {"read_p50_ms", Percentile(sum.read_ms, 50), "ms"},
        {"read_tail_ms", sum.tail_ms, "ms"},
        {"write_p50_ms", Percentile(sum.write_ms, 50), "ms"},
        {"work_per_op", sum.work_per_op, "count"},
        {"peak_query_mb", sum.peak_mb, "MiB"},
        {"rss_peak_mb", rss_mb, "MiB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    failed += CheckIdentity(w, records, traced);
    if (cache.hits != traced_cache.hits ||
        cache.misses != traced_cache.misses ||
        cache.invalidations != traced_cache.invalidations) {
      std::fprintf(stderr, "traced path plan-cache counters differ\n");
      ++failed;
    }
    metrics = LayerMetrics(sum, traced, runner.spans(), counts, cache,
                           resident_mb, untraced_ns);
    WriteTrace(args.out + "/" + w.name + "-trace.json", runner.spans());
  }
  std::printf("error_rate %.6f (%lld of %zu)\n",
              static_cast<double>(failed) / static_cast<double>(n),
              static_cast<long long>(failed), n);

  const std::string json =
      Json(metrics, failed == 0, static_cast<int64_t>(n), failed);
  std::ofstream(args.out + "/" + w.name + "-seed" + std::to_string(args.seed) +
                (args.trace ? "-layers.json" : "-e2e.json"))
      << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
      << ", \"ops\": " << n << ", \"reads\": " << reads
      << ", \"read_tail_percentile\": " << sum.tail_pct << ", \"oracle\": \""
      << starmagic::StrategyName(w.oracle) << "\", \"result\": " << json
      << "}\n";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <report_views|adhoc_lookups|"
                 "prepared_oltp> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
