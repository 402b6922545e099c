#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "workload.h"

namespace perfbench {

/// What one operation returned, kept per op for the checks after the run.
struct OpRecord {
  bool ok = false;
  std::string error;      ///< status text when !ok
  uint64_t digest = 0;    ///< order-independent digest of the result rows
  int64_t rows = 0;
  int64_t work = 0;       ///< ExecStats::TotalWork (reads)
  int64_t peak_bytes = 0; ///< GovernorStats::peak_bytes (reads)
  bool plan_hit = false;  ///< ran a clone of a cached plan
  int64_t ns = 0;         ///< latency of the public call
};

/// Order-independent digest of a result table: a sum of per-row hashes,
/// with numbers canonicalised so INT 3 and DOUBLE 3.0 agree.
uint64_t DigestRows(const starmagic::Table& table);

/// Runs `op` through the public API: Database::Query for reads,
/// Database::Execute for writes, with default QueryOptions.
OpRecord RunOp(starmagic::Database* db, const Op& op);

/// Counters of the traced (decomposed) path, summed over its operations.
struct LayerCounts {
  starmagic::ExecStats exec;
  int64_t cancel_checks = 0;
  int64_t rule_fires = 0, rule_attempts = 0;
  double rule_ms = 0;  ///< RuleFireStats::wall_ms, rules other than emst
  double emst_ms = 0;  ///< RuleFireStats::wall_ms of rule emst
  int64_t emst_chosen = 0;
};

/// One span: a call into a layer's public entry point, timed from the
/// benchmark's own code.
struct Span {
  int name = 0;    ///< index into kSpanNames
  int parent = -1; ///< index of the enclosing span, -1 for an op root
  int64_t op = 0;
  int64_t start_ns = 0, end_ns = 0;
};

enum SpanName {
  kSpanOp,        ///< the whole operation
  kSpanParse,     ///< ParseQuery / ParseStatement
  kSpanBuild,     ///< QgmBuilder::Build
  kSpanOptimize,  ///< OptimizeQuery
  kSpanLookup,    ///< PlanCache::Lookup
  kSpanBind,      ///< graph clone + BindParameters
  kSpanInsert,    ///< PlanCache::Insert of a fresh plan
  kSpanExec,      ///< Executor::Run
  kSpanWrite,     ///< Database::Execute (DML)
  kNumSpanNames,
};
extern const char* const kSpanNames[kNumSpanNames];

/// Runs operations through the layers Database::Query calls, one public
/// entry point at a time, recording a span around each call in memory.
class TracedRunner {
 public:
  explicit TracedRunner(starmagic::Database* db) : db_(db) {}

  OpRecord Run(const Op& op, int64_t op_id, LayerCounts* counts);

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  class Scope;
  starmagic::Result<starmagic::PipelineResult> Compile(
      const std::string& sql, int64_t op, int parent, LayerCounts* counts);

  starmagic::Database* db_;
  std::vector<Span> spans_;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Threads that check answers after the timed phase.
constexpr size_t kVerifyThreads = 3;

/// Checks `records` (one per op of `w.ops`, in order) against an oracle
/// that runs every read's oracle SQL under `w.oracle` on a fresh database
/// set up from `seed`, replaying the writes before it, memoised per text
/// while no write can change the answer. The ops are split into
/// kVerifyThreads consecutive segments checked in parallel, each on its own
/// database. Returns the number of ops whose status or rows disagree and
/// prints the first few to stderr.
int64_t VerifyAgainstOracle(const Workload& w, uint64_t seed,
                            const std::vector<OpRecord>& records);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
