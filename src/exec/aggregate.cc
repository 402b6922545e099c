#include "exec/aggregate.h"

#include <limits>

#include "common/string_util.h"

namespace starmagic {

Status Accumulator::Add(const Value& v) {
  if (func_ == AggFunc::kCountStar) {
    ++count_;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();  // aggregates ignore NULLs
  if (distinct_) {
    if (!seen_.insert(v).second) return Status::OK();
  }
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (!v.is_numeric()) {
        return Status::ExecutionError(
            StrCat(AggFuncName(func_), " requires numeric input, got ",
                   v.ToString()));
      }
      ++count_;
      if (v.kind() == ValueKind::kDouble) sum_is_double_ = true;
      sum_ += v.AsDouble();
      if (v.kind() == ValueKind::kInt) sum_int_ += v.int_value();
      break;
    }
    case AggFunc::kMin:
      ++count_;
      if (min_.is_null() || Value::CompareTotal(v, min_) < 0) min_ = v;
      break;
    case AggFunc::kMax:
      ++count_;
      if (max_.is_null() || Value::CompareTotal(v, max_) > 0) max_ = v;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

Result<Value> Accumulator::Finish() const {
  switch (func_) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Value::Int(count_);
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();
      if (sum_is_double_) return Value::Double(sum_);
      if (sum_int_ > std::numeric_limits<int64_t>::max() ||
          sum_int_ < std::numeric_limits<int64_t>::min()) {
        return Status::ExecutionError("integer overflow in SUM");
      }
      return Value::Int(static_cast<int64_t>(sum_int_));
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
  }
  return Value::Null();
}

}  // namespace starmagic
