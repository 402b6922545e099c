#include "common/value.h"

#include <cmath>
#include <functional>
#include <limits>

#include "common/string_util.h"

namespace starmagic {

TriBool TriNot(TriBool v) {
  switch (v) {
    case TriBool::kTrue:
      return TriBool::kFalse;
    case TriBool::kFalse:
      return TriBool::kTrue;
    case TriBool::kUnknown:
      return TriBool::kUnknown;
  }
  return TriBool::kUnknown;
}

TriBool TriAnd(TriBool a, TriBool b) {
  if (a == TriBool::kFalse || b == TriBool::kFalse) return TriBool::kFalse;
  if (a == TriBool::kTrue && b == TriBool::kTrue) return TriBool::kTrue;
  return TriBool::kUnknown;
}

TriBool TriOr(TriBool a, TriBool b) {
  if (a == TriBool::kTrue || b == TriBool::kTrue) return TriBool::kTrue;
  if (a == TriBool::kFalse && b == TriBool::kFalse) return TriBool::kFalse;
  return TriBool::kUnknown;
}

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return "BOOLEAN";
    case ValueKind::kInt:
      return "INTEGER";
    case ValueKind::kDouble:
      return "DOUBLE";
    case ValueKind::kString:
      return "VARCHAR";
  }
  return "?";
}

namespace {

// Compares two non-null values of comparable kinds. Returns an error for
// incomparable kind pairs.
Result<int> CompareNonNull(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
      int64_t x = a.int_value(), y = b.int_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.AsDouble(), y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.kind() != b.kind()) {
    return Status::ExecutionError(
        StrCat("cannot compare ", ValueKindName(a.kind()), " with ",
               ValueKindName(b.kind())));
  }
  switch (a.kind()) {
    case ValueKind::kBool: {
      int x = a.bool_value() ? 1 : 0, y = b.bool_value() ? 1 : 0;
      return x - y;
    }
    case ValueKind::kString: {
      int c = a.string_value().compare(b.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return Status::Internal("unexpected kind in CompareNonNull");
  }
}

}  // namespace

Result<TriBool> Value::SqlEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  SM_ASSIGN_OR_RETURN(int c, CompareNonNull(a, b));
  return c == 0 ? TriBool::kTrue : TriBool::kFalse;
}

Result<TriBool> Value::SqlLess(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  SM_ASSIGN_OR_RETURN(int c, CompareNonNull(a, b));
  return c < 0 ? TriBool::kTrue : TriBool::kFalse;
}

Result<TriBool> Value::SqlLessEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  SM_ASSIGN_OR_RETURN(int c, CompareNonNull(a, b));
  return c <= 0 ? TriBool::kTrue : TriBool::kFalse;
}

int Value::CompareTotal(const Value& a, const Value& b) {
  // Order kinds as NULL < BOOL < numeric < STRING; numerics inter-compare.
  auto rank = [](const Value& v) {
    switch (v.kind()) {
      case ValueKind::kNull:
        return 0;
      case ValueKind::kBool:
        return 1;
      case ValueKind::kInt:
      case ValueKind::kDouble:
        return 2;
      case ValueKind::kString:
        return 3;
    }
    return 4;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for grouping.
    case 1: {
      int x = a.bool_value() ? 1 : 0, y = b.bool_value() ? 1 : 0;
      return x - y;
    }
    case 2: {
      double x = a.AsDouble(), y = b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {
      int c = a.string_value().compare(b.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

namespace {

Status IntegerOverflow(const char* op, const Value& a, const Value& b) {
  return Status::ExecutionError(StrCat("integer overflow: ", a.ToString(),
                                       " ", op, " ", b.ToString()));
}

// `fi` returns true when the exact int64 result does not fit (the
// __builtin_*_overflow convention); the error is typed, never a wrap.
Result<Value> NumericBinary(const Value& a, const Value& b, const char* op,
                            bool (*fi)(int64_t, int64_t, int64_t*),
                            double (*fd)(double, double)) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::ExecutionError(
        StrCat("operator '", op, "' requires numeric operands, got ",
               ValueKindName(a.kind()), " and ", ValueKindName(b.kind())));
  }
  if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
    int64_t out = 0;
    if (fi(a.int_value(), b.int_value(), &out)) {
      return IntegerOverflow(op, a, b);
    }
    return Value::Int(out);
  }
  return Value::Double(fd(a.AsDouble(), b.AsDouble()));
}

}  // namespace

Result<Value> Value::Add(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, "+",
      [](int64_t x, int64_t y, int64_t* out) {
        return __builtin_add_overflow(x, y, out);
      },
      [](double x, double y) { return x + y; });
}

Result<Value> Value::Subtract(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, "-",
      [](int64_t x, int64_t y, int64_t* out) {
        return __builtin_sub_overflow(x, y, out);
      },
      [](double x, double y) { return x - y; });
}

Result<Value> Value::Multiply(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, "*",
      [](int64_t x, int64_t y, int64_t* out) {
        return __builtin_mul_overflow(x, y, out);
      },
      [](double x, double y) { return x * y; });
}

Result<Value> Value::Divide(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::ExecutionError("operator '/' requires numeric operands");
  }
  if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
    if (b.int_value() == 0) return Status::ExecutionError("division by zero");
    // The one int64 quotient that does not fit; the hardware traps on it.
    if (a.int_value() == std::numeric_limits<int64_t>::min() &&
        b.int_value() == -1) {
      return IntegerOverflow("/", a, b);
    }
    return Value::Int(a.int_value() / b.int_value());
  }
  if (b.AsDouble() == 0.0) return Status::ExecutionError("division by zero");
  return Value::Double(a.AsDouble() / b.AsDouble());
}

Result<Value> Value::Negate(const Value& a) {
  if (a.is_null()) return Value::Null();
  if (a.kind() == ValueKind::kInt) {
    if (a.int_value() == std::numeric_limits<int64_t>::min()) {
      return Status::ExecutionError(
          StrCat("integer overflow: -(", a.ToString(), ")"));
    }
    return Value::Int(-a.int_value());
  }
  if (a.kind() == ValueKind::kDouble) return Value::Double(-a.double_value());
  return Status::ExecutionError("unary '-' requires a numeric operand");
}

size_t Value::Hash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueKind::kBool:
      return std::hash<bool>{}(bool_value()) ^ 0x1;
    case ValueKind::kInt:
    case ValueKind::kDouble: {
      // Hash by double so that Int(3) and Double(3.0) collide, matching
      // EqualsGrouping.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      return std::hash<double>{}(d);
    }
    case ValueKind::kString:
      return std::hash<std::string>{}(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case ValueKind::kInt:
      return std::to_string(int_value());
    case ValueKind::kDouble: {
      std::string s = FormatDouble(double_value());
      return s;
    }
    case ValueKind::kString:
      return StrCat("'", string_value(), "'");
  }
  return "?";
}

}  // namespace starmagic
