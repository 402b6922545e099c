#ifndef STARMAGIC_EXEC_AGGREGATE_H_
#define STARMAGIC_EXEC_AGGREGATE_H_

#include <unordered_set>

#include "common/row.h"
#include "common/status.h"
#include "sql/ast.h"

namespace starmagic {

/// One aggregate accumulator with SQL semantics: NULL inputs are ignored
/// (except COUNT(*)); empty input yields NULL for SUM/AVG/MIN/MAX and 0
/// for COUNT. DISTINCT aggregates deduplicate their inputs.
class Accumulator {
 public:
  Accumulator(AggFunc func, bool distinct) : func_(func), distinct_(distinct) {}

  /// Adds one input. For kCountStar pass any value (ignored).
  Status Add(const Value& v);

  /// Final aggregate value. An all-INT SUM whose total does not fit in
  /// int64 is an ExecutionError.
  Result<Value> Finish() const;

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return Value::EqualsGrouping(a, b);
    }
  };

  AggFunc func_;
  bool distinct_;
  int64_t count_ = 0;      ///< non-null inputs (rows for COUNT(*))
  double sum_ = 0;
  bool sum_is_double_ = false;
  /// Exact sum of the INT inputs: 128 bits cannot overflow before 2^64
  /// inputs, so only the final total is range-checked.
  __int128 sum_int_ = 0;
  Value min_;
  Value max_;
  std::unordered_set<Value, ValueHash, ValueEq> seen_;
};

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_AGGREGATE_H_
