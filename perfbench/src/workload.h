#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

enum class OpKind {
  kQuery,    ///< Database::Query of a SELECT
  kExecute,  ///< Database::Query of EXECUTE name(args)
  kWrite,    ///< Database::Execute of INSERT/UPDATE/DELETE
};

struct Op {
  OpKind kind = OpKind::kQuery;
  int tmpl = 0;         ///< index into Workload::templates
  std::string sql;      ///< the text the client sends
  /// EXECUTE only: the body with the arguments inlined, which the oracle
  /// runs (for a query it runs `sql`).
  std::string inline_sql;
  /// EXECUTE only: the prepared body (static storage), which the traced run
  /// compiles on a plan-cache miss exactly as Database::Query does.
  const char* prepared_body = nullptr;

  const std::string& oracle_sql() const {
    return kind == OpKind::kExecute ? inline_sql : sql;
  }
};

struct Workload {
  std::string name;
  std::vector<std::string> templates;
  /// Strategy the oracle runs reads under; never kMagic, so no answer is
  /// checked against the EMST rewrite that produced it.
  starmagic::ExecutionStrategy oracle = starmagic::ExecutionStrategy::kOriginal;
  /// False when every write goes to a table no read touches, so the
  /// oracle may reuse one answer per distinct text for the whole run.
  bool writes_change_reads = false;
  /// Statements run once at set-up (PREPARE), through Database::Query.
  std::vector<std::string> prepares;
  /// Read-only operations run at the end of set-up: every template once.
  std::vector<Op> warmup;
  /// The measured sequence, fixed by (seed, seconds).
  std::vector<Op> ops;
};

/// Builds the operation sequence of `name`. The operation count is a fixed
/// rate times `seconds`, so a run never stops on a timer. Unknown names
/// return an empty workload name.
Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds);

/// Loads the seeded corpus every workload reads (tables, views, indexes,
/// ANALYZE) and runs the workload's PREPARE statements.
starmagic::Status SetUpDatabase(starmagic::Database* db, const Workload& w,
                                uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
