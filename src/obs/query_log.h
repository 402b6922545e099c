#ifndef STARMAGIC_OBS_QUERY_LOG_H_
#define STARMAGIC_OBS_QUERY_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "optimizer/plan_choice.h"

namespace starmagic {

/// Everything the engine remembers about one Query() call: the SQL text,
/// the §3.2 decision (the PlanChoice base: C1/C2, chosen plan), and what
/// actually happened at runtime (work, wall time, rows, status).
struct QueryLogEntry : PlanChoice {
  int64_t id = 0;  ///< monotone sequence number, assigned by QueryLog
  std::string sql;
  std::string kind;      ///< "select" | "explain" | "explain-analyze" | ...
  std::string strategy;  ///< StrategyName of the requested strategy
  std::string status = "ok";  ///< "ok" or the error Status text
  int64_t total_work = 0;     ///< ExecStats::TotalWork of the execution
  int64_t rows = 0;           ///< rows the query produced
  double wall_ms = 0;         ///< end-to-end wall time of the Query() call
  /// Peak bytes the resource governor accounted for this query (0 when
  /// nothing was materialized). Recorded for failing runs too — the first
  /// diagnostic for a ResourceExhausted entry.
  int64_t peak_memory_bytes = 0;
  std::vector<RuleFireStats> rule_fires;  ///< phase-tagged, fires > 0 only

  /// One-entry rendering (multi-line, newline-terminated).
  std::string ToString() const;
};

/// A fixed-capacity ring buffer of QueryLogEntry, owned by Database: the
/// newest `capacity` queries survive, older ones are overwritten. Entry
/// ids keep counting across evictions, so gaps reveal discarded history.
///
/// Thread-safety: Record and SnapshotEntries/Dump/size/total_recorded are
/// serialized by an internal mutex, so the HTTP scrape path may read while
/// queries finish. Entries()/Latest() return pointers into the ring and
/// are for quiesced (single-threaded) callers only — a concurrent Record
/// invalidates them.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit QueryLog(size_t capacity = kDefaultCapacity);

  /// Appends `entry` (its `id` field is assigned here), evicting the
  /// oldest entry when full.
  void Record(QueryLogEntry entry);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Total entries ever recorded (>= size() once the ring wraps).
  int64_t total_recorded() const;

  /// Entries oldest-first. Pointers are invalidated by the next Record;
  /// quiesced callers only (see class comment).
  std::vector<const QueryLogEntry*> Entries() const;
  /// The most recent entry, or nullptr when empty. Quiesced callers only.
  const QueryLogEntry* Latest() const;

  /// Entries oldest-first, copied out under the log's lock — the safe
  /// variant for readers racing Record (system-table fills, HTTP scrapes).
  std::vector<QueryLogEntry> SnapshotEntries() const;

  /// Text dump of the most recent `n` entries, oldest of those first
  /// (everything retained when n <= 0).
  std::string Dump(int n = -1) const;

  void Clear();

 private:
  /// Ring slots oldest-first; mu_ must be held.
  std::vector<const QueryLogEntry*> EntriesLocked() const;

  mutable std::mutex mu_;
  size_t capacity_;
  size_t head_ = 0;  ///< slot the next Record overwrites once full
  int64_t next_id_ = 1;
  std::vector<QueryLogEntry> ring_;
};

}  // namespace starmagic

#endif  // STARMAGIC_OBS_QUERY_LOG_H_
