#include "runner.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "common/string_util.h"
#include "exec/executor.h"
#include "plan/plan_cache.h"
#include "qgm/builder.h"
#include "sql/parser.h"

namespace perfbench {

using namespace starmagic;

const char* const kSpanNames[kNumSpanNames] = {
    "op",          "sql.parse", "qgm.build",   "optimizer.optimize",
    "plan.lookup", "plan.bind", "plan.insert", "exec.run",
    "catalog.write"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(uint64_t h, const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t DigestRows(const Table& table) {
  uint64_t sum = 0;
  for (const Row& row : table.rows()) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : row) {
      uint64_t bits = 0;
      switch (v.kind()) {
        case ValueKind::kNull:
          bits = 0x6e756c6cULL;
          break;
        case ValueKind::kBool:
          bits = v.bool_value() ? 0x74ULL : 0x66ULL;
          break;
        case ValueKind::kInt:
        case ValueKind::kDouble: {
          // Numbers hash by value: a whole number as its int64, any other
          // double by its bits, so INT 3 and DOUBLE 3.0 agree.
          double d = v.AsDouble();
          if (v.kind() == ValueKind::kInt) {
            bits = static_cast<uint64_t>(v.int_value());
          } else if (d == std::trunc(d) && std::fabs(d) < 9.0e18) {
            bits = static_cast<uint64_t>(static_cast<int64_t>(d));
          } else {
            std::memcpy(&bits, &d, sizeof(bits));
          }
          break;
        }
        case ValueKind::kString:
          bits = HashBytes(0x9e3779b97f4a7c15ULL, v.string_value().data(),
                           v.string_value().size());
          break;
      }
      h = Mix(h ^ bits ^ static_cast<uint64_t>(v.kind() == ValueKind::kString));
    }
    sum += Mix(h);
  }
  return Mix(sum ^ static_cast<uint64_t>(table.num_rows()));
}

OpRecord RunOp(Database* db, const Op& op) {
  OpRecord rec;
  int64_t start = NowNs();
  if (op.kind == OpKind::kWrite) {
    Status st = db->Execute(op.sql);
    rec.ns = NowNs() - start;
    rec.ok = st.ok();
    if (!st.ok()) rec.error = st.ToString();
    return rec;
  }
  Result<QueryResult> r = db->Query(op.sql);
  rec.ns = NowNs() - start;
  rec.ok = r.ok();
  if (!r.ok()) {
    rec.error = r.status().ToString();
    return rec;
  }
  rec.digest = DigestRows(r->table);
  rec.rows = r->result_rows;
  rec.work = r->exec_stats.TotalWork();
  rec.peak_bytes = r->governor.peak_bytes;
  rec.plan_hit = r->plan_cache_hit;
  return rec;
}

// A span open for the lifetime of the scope.
class TracedRunner::Scope {
 public:
  Scope(std::vector<Span>* spans, int name, int64_t op, int parent)
      : spans_(spans), index_(static_cast<int>(spans->size())) {
    spans->push_back(Span{name, parent, op, NowNs(), 0});
  }
  ~Scope() { (*spans_)[static_cast<size_t>(index_)].end_ns = NowNs(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  std::vector<Span>* spans_;
  int index_;
};

namespace {

// The options Database::Query compiles with under default QueryOptions.
PipelineOptions DefaultPipelineOptions() {
  QueryOptions defaults;
  PipelineOptions popts = defaults.pipeline;
  popts.strategy = defaults.strategy;
  return popts;
}

void CountRules(const std::vector<RuleFireStats>& fires, LayerCounts* c) {
  for (const RuleFireStats& f : fires) {
    if (f.rule == "emst") {
      c->emst_ms += f.wall_ms;
    } else {
      c->rule_fires += f.fires;
      c->rule_attempts += f.attempts;
      c->rule_ms += f.wall_ms;
    }
  }
}

}  // namespace

Result<PipelineResult> TracedRunner::Compile(const std::string& sql,
                                             int64_t op, int parent,
                                             LayerCounts* counts) {
  std::unique_ptr<AstBlob> blob;
  {
    Scope s(&spans_, kSpanParse, op, parent);
    SM_ASSIGN_OR_RETURN(blob, ParseQuery(sql));
  }
  std::unique_ptr<QueryGraph> graph;
  {
    Scope s(&spans_, kSpanBuild, op, parent);
    QgmBuilder builder(db_->catalog());
    SM_ASSIGN_OR_RETURN(graph, builder.Build(*blob));
  }
  Result<PipelineResult> pipeline = [&]() {
    Scope s(&spans_, kSpanOptimize, op, parent);
    return OptimizeQuery(std::move(graph), db_->catalog(),
                         DefaultPipelineOptions());
  }();
  if (pipeline.ok()) {
    CountRules(pipeline->rule_fires, counts);
    counts->emst_chosen += pipeline->emst_chosen ? 1 : 0;
  }
  return pipeline;
}

OpRecord TracedRunner::Run(const Op& op, int64_t op_id, LayerCounts* counts) {
  OpRecord rec;
  Table result;
  Status status = [&]() -> Status {
    Scope root(&spans_, kSpanOp, op_id, -1);
    const int parent = root.index();
    if (op.kind == OpKind::kWrite) {
      Scope s(&spans_, kSpanWrite, op_id, parent);
      return db_->Execute(op.sql);
    }
    PipelineResult pipeline;
    if (op.kind == OpKind::kQuery) {
      SM_ASSIGN_OR_RETURN(pipeline, Compile(op.sql, op_id, parent, counts));
    } else {
      // EXECUTE, step for step as Database::Query runs it: parse the
      // statement, look the prepared body up in the plan cache, compile
      // and insert on a miss, bind the arguments into a fresh clone.
      std::unique_ptr<AstStatement> stmt;
      {
        Scope s(&spans_, kSpanParse, op_id, parent);
        SM_ASSIGN_OR_RETURN(stmt, ParseStatement(op.sql));
      }
      if (stmt->kind != StatementKind::kExecute) {
        return Status::InvalidArgument(StrCat("not an EXECUTE: ", op.sql));
      }
      const auto& exec = static_cast<const AstExecute&>(*stmt);
      const PipelineOptions popts = DefaultPipelineOptions();
      const std::string norm_sql = PlanCache::NormalizeSql(op.prepared_body);
      const std::string fingerprint = PlanCache::Fingerprint(popts);
      PlanCache* cache = db_->plan_cache();
      PlanCache::LookupResult lookup;
      {
        Scope s(&spans_, kSpanLookup, op_id, parent);
        lookup = cache->Lookup(norm_sql, fingerprint, *db_->catalog());
      }
      if (lookup.plan != nullptr) {
        rec.plan_hit = true;
        counts->emst_chosen += lookup.plan->emst_chosen ? 1 : 0;
        Scope s(&spans_, kSpanBind, op_id, parent);
        pipeline.graph = lookup.plan->graph->Clone();
      } else {
        SM_ASSIGN_OR_RETURN(pipeline,
                            Compile(op.prepared_body, op_id, parent, counts));
        Scope s(&spans_, kSpanInsert, op_id, parent);
        if (!ReferencesSysTables(*pipeline.graph)) {
          const Catalog& catalog = *db_->catalog();
          CachedPlan plan;
          plan.graph = pipeline.graph->Clone();
          plan.cost_no_emst = pipeline.cost_no_emst;
          plan.cost_with_emst = pipeline.cost_with_emst;
          plan.emst_applied = pipeline.emst_applied;
          plan.emst_chosen = pipeline.emst_chosen;
          plan.rewrite_applications = pipeline.rewrite_applications;
          plan.num_params = static_cast<int>(exec.args.size());
          for (const std::string& t : ReferencedBaseTables(*pipeline.graph)) {
            plan.pins.push_back({t, catalog.TableVersion(t),
                                 catalog.LastAnalyzeVersion(t)});
          }
          plan.ddl_version = catalog.ddl_version();
          plan.normalized_sql = norm_sql;
          plan.fingerprint = fingerprint;
          cache->Insert(std::move(plan));
        }
      }
      Scope s(&spans_, kSpanBind, op_id, parent);
      SM_RETURN_IF_ERROR(BindParameters(pipeline.graph.get(), exec.args));
    }
    // Database::Query's execution settings under default QueryOptions.
    ResourceGovernor governor(ResourceBudget::Unlimited());
    ExecOptions exec_options;
    exec_options.governor = &governor;
    Executor executor(pipeline.graph.get(), db_->catalog(), exec_options);
    Result<Table> table = [&]() {
      Scope s(&spans_, kSpanExec, op_id, parent);
      return executor.Run();
    }();
    if (!table.ok()) return table.status();
    result = std::move(*table);
    rec.rows = result.num_rows();
    rec.work = executor.stats().TotalWork();
    rec.peak_bytes = governor.peak_bytes();
    counts->exec.MergeFrom(executor.stats());
    counts->cancel_checks += governor.cancel_checks();
    return Status::OK();
  }();
  rec.ok = status.ok();
  if (!status.ok()) rec.error = status.ToString();
  if (op.kind != OpKind::kWrite) rec.digest = DigestRows(result);
  return rec;
}

namespace {

// Checks ops [begin, end) of `w` on a fresh database that first replays the
// writes before `begin`. Appends a line per mismatch to *messages.
int64_t VerifySegment(const Workload& w, uint64_t seed,
                      const std::vector<OpRecord>& records, size_t begin,
                      size_t end, std::vector<std::string>* messages) {
  Database db;
  if (Status st = SetUpDatabase(&db, w, seed); !st.ok()) {
    messages->push_back(StrCat("oracle set-up failed: ", st.ToString()));
    return static_cast<int64_t>(end - begin);
  }
  const QueryOptions oracle_options(w.oracle);
  std::map<std::string, OpRecord> memo;
  int64_t mismatches = 0;
  auto report = [&](size_t i, const std::string& why) {
    ++mismatches;
    messages->push_back(StrCat(
        "op ", i, " (", w.templates[static_cast<size_t>(w.ops[i].tmpl)], ") ",
        why, ": ", w.ops[i].sql));
  };
  for (size_t i = 0; i < end; ++i) {
    const Op& op = w.ops[i];
    const OpRecord& got = records[i];
    if (op.kind == OpKind::kWrite) {
      if (Status st = db.Execute(op.sql); !st.ok() && i >= begin) {
        report(i, StrCat("oracle write failed: ", st.ToString()));
      }
      if (w.writes_change_reads) memo.clear();
    }
    if (i < begin) continue;
    if (!got.ok) {
      report(i, got.error);
      continue;
    }
    if (op.kind == OpKind::kWrite) continue;
    auto it = memo.find(op.oracle_sql());
    if (it == memo.end()) {
      OpRecord expect;
      Result<QueryResult> r = db.Query(op.oracle_sql(), oracle_options);
      expect.ok = r.ok();
      if (r.ok()) {
        expect.digest = DigestRows(r->table);
        expect.rows = r->result_rows;
      } else {
        expect.error = r.status().ToString();
      }
      it = memo.emplace(op.oracle_sql(), std::move(expect)).first;
    }
    if (!it->second.ok) {
      report(i, StrCat("oracle failed: ", it->second.error));
    } else if (it->second.digest != got.digest ||
               it->second.rows != got.rows) {
      report(i, StrCat("rows differ from the oracle (", got.rows, " vs ",
                       it->second.rows, ")"));
    }
  }
  return mismatches;
}

}  // namespace

int64_t VerifyAgainstOracle(const Workload& w, uint64_t seed,
                            const std::vector<OpRecord>& records) {
  const size_t n = w.ops.size();
  std::vector<int64_t> mismatches(kVerifyThreads, 0);
  std::vector<std::vector<std::string>> messages(kVerifyThreads);
  {
    std::vector<std::jthread> threads;
    for (size_t k = 0; k < kVerifyThreads; ++k) {
      threads.emplace_back([&, k] {
        mismatches[k] = VerifySegment(w, seed, records, k * n / kVerifyThreads,
                                      (k + 1) * n / kVerifyThreads,
                                      &messages[k]);
      });
    }
  }
  int64_t total = 0;
  size_t printed = 0;
  for (size_t k = 0; k < kVerifyThreads; ++k) {
    total += mismatches[k];
    for (const std::string& m : messages[k]) {
      if (printed++ < 5) std::fprintf(stderr, "%s\n", m.c_str());
    }
  }
  return total;
}

}  // namespace perfbench
