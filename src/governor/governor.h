#ifndef STARMAGIC_GOVERNOR_GOVERNOR_H_
#define STARMAGIC_GOVERNOR_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace starmagic {

class Table;

/// Fixpoint rounds a query may run when its budget leaves
/// max_fixpoint_iterations at 0: the engine's ceiling on a recursion that
/// never converges.
inline constexpr int64_t kMaxFixpointIterations = 100'000;

/// Per-query resource limits. A field of 0 means "unlimited", except that
/// fixpoint rounds stay capped at kMaxFixpointIterations: a governor with
/// the default budget adds accounting and aborts only a recursion that
/// runs past that ceiling.
///
/// Budgets are enforced *cooperatively*: the executor charges bytes as it
/// materializes state and polls the governor at morsel boundaries, box
/// entry, and fixpoint rounds. An over-budget query therefore stops at the
/// next check point — promptly, but never by killing a thread mid-write.
struct ResourceBudget {
  /// Cap on bytes of materialized state (scan buffers, hash-join build
  /// tables, per-morsel output buffers, fixpoint delta/total relations).
  int64_t max_memory_bytes = 0;
  /// Wall-clock deadline measured from governor creation (query start).
  double deadline_ms = 0;
  /// Cap on total fixpoint rounds across all recursive SCCs of the query
  /// (0: kMaxFixpointIterations).
  int64_t max_fixpoint_iterations = 0;
  /// Cap on rows produced across all boxes of the query.
  int64_t max_output_rows = 0;

  static ResourceBudget Unlimited() { return ResourceBudget{}; }

  bool IsUnlimited() const {
    return max_memory_bytes == 0 && deadline_ms == 0 &&
           max_fixpoint_iterations == 0 && max_output_rows == 0;
  }

  /// "(unlimited)" or "mem=N time=Nms iters=N rows=N" (set fields only).
  std::string ToString() const;
};

/// A cooperative cancellation flag the caller can trip from any thread.
/// The governor polls it at every check point; a cancelled query aborts
/// with StatusCode::kCancelled once all workers reach their next check.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Governor outcomes surfaced per query (QueryResult, QueryLog, metrics).
struct GovernorStats {
  int64_t peak_bytes = 0;
  int64_t cancel_checks = 0;
};

/// Tracks one query's resource usage against its budget and answers
/// "may I continue?" at every cooperative check point.
///
/// Thread safety: Reserve/Release/CheckPoint are safe to call from any
/// worker thread (atomics only). CheckFixpointIteration and
/// CheckOutputRows are coordinator-only, matching the executor's
/// single-threaded fixpoint driver and box dispatch.
///
/// Determinism contract (PR 6): error *messages* mention only configured
/// limits, never observed usage — observed bytes at abort time depend on
/// worker scheduling, so including them would make Status differ across
/// thread counts. Within a parallel step reservations only grow, and
/// releases happen at coordinator points between steps, so peak_bytes is
/// also identical at any thread count for a successful query.
class ResourceGovernor {
 public:
  explicit ResourceGovernor(ResourceBudget budget,
                            const CancellationToken* token = nullptr)
      : budget_(budget),
        token_(token),
        start_(std::chrono::steady_clock::now()) {}

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Charges `bytes` against the memory budget. Over-limit returns
  /// kResourceExhausted; the charge sticks either way (the query is
  /// aborting — accounting precision no longer matters).
  Status Reserve(int64_t bytes);

  /// Returns bytes previously charged with Reserve. Coordinator-only
  /// between parallel steps, per the peak-determinism contract above.
  void Release(int64_t bytes);

  /// The cooperative poll: cancellation first, then deadline. Called at
  /// morsel boundaries, box entry, and each fixpoint round.
  Status CheckPoint();

  /// Enforces the fixpoint-iteration budget, or kMaxFixpointIterations
  /// when the budget sets none; `iterations` is the total so far across the
  /// query's SCCs. This is the executor's only cap on recursion.
  Status CheckFixpointIteration(int64_t iterations);

  /// Enforces the output-row budget; `rows` is rows_produced so far.
  Status CheckOutputRows(int64_t rows);

  int64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  int64_t cancel_checks() const {
    return cancel_checks_.load(std::memory_order_relaxed);
  }
  const ResourceBudget& budget() const { return budget_; }

  GovernorStats Stats() const {
    return GovernorStats{peak_bytes(), cancel_checks()};
  }

 private:
  const ResourceBudget budget_;
  const CancellationToken* token_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> cancel_checks_{0};
};

/// Approximate bytes of a materialized table's rows (content-based, via
/// RowBytes): what the governor charges for scans, caches, and fixpoint
/// relations.
int64_t TableBytes(const Table& table);

}  // namespace starmagic

#endif  // STARMAGIC_GOVERNOR_GOVERNOR_H_
