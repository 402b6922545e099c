#include "governor/governor.h"

#include "catalog/table.h"
#include "common/string_util.h"

namespace starmagic {

std::string ResourceBudget::ToString() const {
  if (IsUnlimited()) return "(unlimited)";
  std::vector<std::string> parts;
  if (max_memory_bytes > 0) parts.push_back(StrCat("mem=", max_memory_bytes));
  if (deadline_ms > 0) {
    parts.push_back(StrCat("time=", FormatDouble(deadline_ms), "ms"));
  }
  if (max_fixpoint_iterations > 0) {
    parts.push_back(StrCat("iters=", max_fixpoint_iterations));
  }
  if (max_output_rows > 0) parts.push_back(StrCat("rows=", max_output_rows));
  return Join(parts, " ");
}

Status ResourceGovernor::Reserve(int64_t bytes) {
  if (bytes <= 0) return Status::OK();
  int64_t now =
      used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  if (budget_.max_memory_bytes > 0 && now > budget_.max_memory_bytes) {
    // Limit only — observed usage at abort time is scheduling-dependent,
    // and the message must be identical at any thread count.
    return Status::ResourceExhausted(StrCat(
        "memory budget exceeded (limit ", budget_.max_memory_bytes,
        " bytes)"));
  }
  return Status::OK();
}

void ResourceGovernor::Release(int64_t bytes) {
  if (bytes <= 0) return;
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

Status ResourceGovernor::CheckPoint() {
  cancel_checks_.fetch_add(1, std::memory_order_relaxed);
  if (token_ != nullptr && token_->cancelled()) {
    return Status::Cancelled("query cancelled");
  }
  if (budget_.deadline_ms > 0) {
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (elapsed_ms > budget_.deadline_ms) {
      return Status::DeadlineExceeded(StrCat(
          "query deadline exceeded (", FormatDouble(budget_.deadline_ms),
          " ms)"));
    }
  }
  return Status::OK();
}

Status ResourceGovernor::CheckFixpointIteration(int64_t iterations) {
  const int64_t limit = budget_.max_fixpoint_iterations > 0
                            ? budget_.max_fixpoint_iterations
                            : kMaxFixpointIterations;
  if (iterations > limit) {
    return Status::ResourceExhausted(
        StrCat("fixpoint iteration budget exceeded (limit ", limit, ")"));
  }
  return Status::OK();
}

Status ResourceGovernor::CheckOutputRows(int64_t rows) {
  if (budget_.max_output_rows > 0 && rows > budget_.max_output_rows) {
    return Status::ResourceExhausted(StrCat(
        "output row budget exceeded (limit ", budget_.max_output_rows,
        " rows)"));
  }
  return Status::OK();
}

int64_t TableBytes(const Table& table) {
  int64_t bytes = 0;
  for (const Row& row : table.rows()) bytes += RowBytes(row);
  return bytes;
}

}  // namespace starmagic
