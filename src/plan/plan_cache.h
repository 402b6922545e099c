#ifndef STARMAGIC_PLAN_PLAN_CACHE_H_
#define STARMAGIC_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "governor/governor.h"
#include "optimizer/pipeline.h"
#include "qgm/graph.h"

namespace starmagic {

/// One compiled plan retained by the cache. The graph is a master copy:
/// executions clone it (QueryGraph::Clone preserves ids), bind parameters
/// into the clone, and run the clone — the cached master is never mutated.
///
/// Validity is pinned at compile time: the per-table modification and
/// analyze versions of every referenced base table, plus the catalog-wide
/// DDL version (per-table versions alone cannot detect drop-and-recreate —
/// see Catalog::ddl_version). A lookup whose pins no longer match the live
/// catalog drops the entry instead of returning it, so a stale plan is
/// never executed.
///
/// The PlanChoice base is replayed on cache hits: the pipeline is skipped,
/// but EXPLAIN and QueryResult still report the compile-time outcome.
struct CachedPlan : PlanChoice {
  std::unique_ptr<QueryGraph> graph;

  /// Positional parameters ('?') the plan expects at execution.
  int num_params = 0;

  /// Version pins of every referenced base table at compile time.
  struct TablePin {
    std::string name;
    int64_t modified = 0;
    int64_t analyzed = -1;
  };
  std::vector<TablePin> pins;
  /// Catalog-wide DDL version at compile time.
  int64_t ddl_version = 0;

  int64_t bytes = 0;     ///< resident-size estimate (EstimatePlanBytes)
  int64_t hits = 0;      ///< times this entry satisfied a lookup
  int64_t entry_id = 0;  ///< monotone insertion id (sys.plan_cache key)
  uint64_t key_hash = 0;
  std::string normalized_sql;
  std::string fingerprint;
};

/// Monotone counters; hits + misses = lookups (a stale lookup counts as
/// both an invalidation and a miss, since a recompile follows).
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t invalidations = 0;
  int64_t evictions = 0;
};

/// One sys.plan_cache row: a point-in-time view of a cache entry.
struct PlanCacheEntryInfo {
  int64_t entry_id = 0;
  uint64_t key_hash = 0;
  std::string sql;          ///< normalized SQL of the key
  std::string fingerprint;  ///< options fingerprint of the key
  int64_t hits = 0;
  int64_t bytes = 0;
  int num_params = 0;
  int64_t ddl_version = 0;
  /// "name@modified/analyzed" pins, comma-joined, name-sorted.
  std::string tables;
};

/// LRU cache of compiled plans, keyed on normalized SQL text plus a
/// fingerprint of every plan-affecting option. Internally locked: the
/// coordinator mutates it per query while the HTTP observability thread
/// snapshots it. Resident bytes are charged to an embedded unlimited-
/// budget ResourceGovernor, so cache residency shows up in the same
/// accounting currency as query memory.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Whitespace-normalizes SQL outside single-quoted strings and strips
  /// trailing separators, so formatting differences share one cache entry.
  /// Case is preserved (keys stay exact; no risk of folding literals).
  static std::string NormalizeSql(const std::string& sql);

  /// Fingerprint of every PipelineOptions knob that changes the compiled
  /// plan: strategy, rewrite toggles, EMST options, cost_compare,
  /// try_sips_order. Observability sinks (tracer, metrics, snapshots) are
  /// deliberately excluded — they change what compilation reports, not
  /// what it produces.
  static std::string Fingerprint(const PipelineOptions& options);

  struct LookupResult {
    /// The matching valid entry, or null on miss/stale. shared_ptr: the
    /// caller may still be cloning the graph when the entry is evicted.
    std::shared_ptr<const CachedPlan> plan;
    /// True when a matching entry existed but its version pins no longer
    /// matched the catalog; the entry was dropped and this is also a miss.
    bool invalidated = false;
  };

  /// Looks up (normalized_sql, fingerprint), validating version pins
  /// against the live catalog. Hit: bumps the entry's hit count, moves it
  /// to the LRU front. Stale: drops the entry (counted as invalidation +
  /// miss). Disabled caches always miss.
  LookupResult Lookup(const std::string& normalized_sql,
                      const std::string& fingerprint, const Catalog& catalog);

  /// Inserts (replacing any same-key entry) and evicts LRU entries beyond
  /// capacity. Returns the number of entries evicted. No-op when disabled.
  int Insert(CachedPlan plan);

  /// Drops every entry (not counted as evictions).
  void Clear();

  /// Resizes; 0 disables the cache entirely (and clears it).
  void SetCapacity(size_t capacity);
  size_t capacity() const;
  bool enabled() const;

  size_t size() const;
  int64_t resident_bytes() const { return governor_.used_bytes(); }
  int64_t peak_resident_bytes() const { return governor_.peak_bytes(); }
  PlanCacheStats stats() const;

  /// Point-in-time rows for sys.plan_cache, LRU order (most recent first).
  std::vector<PlanCacheEntryInfo> Snapshot() const;

 private:
  static std::string Key(const std::string& normalized_sql,
                         const std::string& fingerprint);
  /// Drops *it (already located) — caller classifies why.
  void EraseLocked(std::list<std::shared_ptr<CachedPlan>>::iterator it);

  mutable std::mutex mu_;
  size_t capacity_;
  int64_t next_entry_id_ = 1;
  /// Front = most recently used.
  std::list<std::shared_ptr<CachedPlan>> lru_;
  std::map<std::string, std::list<std::shared_ptr<CachedPlan>>::iterator>
      index_;
  PlanCacheStats stats_;
  /// Residency accounting (unlimited budget: only accounts, never aborts).
  ResourceGovernor governor_{ResourceBudget::Unlimited()};
};

/// Approximate resident bytes of a compiled plan: boxes, quantifiers,
/// expression nodes, and owned strings.
int64_t EstimatePlanBytes(const QueryGraph& graph);

/// Replaces every ExprKind::kParameter node in `graph` with the literal
/// from `args` at its parameter index, in place. Errors when an index is
/// out of range for `args`.
Status BindParameters(QueryGraph* graph, const std::vector<Value>& args);

/// Names of base tables referenced by the graph (sorted, deduplicated).
std::vector<std::string> ReferencedBaseTables(const QueryGraph& graph);

/// True when any referenced base table is in the reserved sys schema.
/// Such plans are never cached: sys tables materialize per query from
/// live engine state, so no version pin can make them safe to reuse.
bool ReferencesSysTables(const QueryGraph& graph);

}  // namespace starmagic

#endif  // STARMAGIC_PLAN_PLAN_CACHE_H_
