#ifndef STARMAGIC_COMMON_VALUE_H_
#define STARMAGIC_COMMON_VALUE_H_

#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <variant>

#include "common/status.h"

namespace starmagic {

/// SQL three-valued logic. WHERE and HAVING keep a row only when the
/// predicate evaluates to kTrue; kUnknown behaves like kFalse for row
/// selection but participates in NOT/AND/OR per the SQL truth tables.
enum class TriBool { kFalse = 0, kTrue = 1, kUnknown = 2 };

TriBool TriNot(TriBool v);
TriBool TriAnd(TriBool a, TriBool b);
TriBool TriOr(TriBool a, TriBool b);

/// Runtime type tag of a Value.
enum class ValueKind { kNull = 0, kBool, kInt, kDouble, kString };

const char* ValueKindName(ValueKind kind);

/// A dynamically typed SQL value: NULL, BOOLEAN, INTEGER (64-bit),
/// DOUBLE, or VARCHAR. Values are small, copyable, and hashable.
///
/// Two comparison regimes exist, both of which SQL requires:
///  - `CompareSql` / `EqualsSql`: SQL semantics, NULL yields kUnknown.
///  - `CompareTotal` / `EqualsGrouping`: a total order where NULL sorts
///    first and equals itself — used by GROUP BY, DISTINCT, set
///    operations, and ORDER BY.
///
/// The representation is a tagged union: copying, moving or destroying a
/// non-string value moves eight bytes and a tag, with no dispatch. It
/// occupies exactly what a std::variant of the five kinds would, so
/// MemoryBytes (and every governor charge built on it) does not depend on
/// the representation.
class Value {
 public:
  Value() : bits_(0), kind_(ValueKind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value out;
    out.kind_ = ValueKind::kBool;
    out.b_ = v;
    return out;
  }
  static Value Int(int64_t v) {
    Value out;
    out.kind_ = ValueKind::kInt;
    out.i_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.kind_ = ValueKind::kDouble;
    out.d_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.kind_ = ValueKind::kString;
    new (&out.s_) std::string(std::move(v));
    return out;
  }

  Value(const Value& other) : kind_(other.kind_) {
    if (kind_ == ValueKind::kString) {
      new (&s_) std::string(other.s_);
    } else {
      CopyScalar(other);
    }
  }
  Value(Value&& other) noexcept : kind_(other.kind_) {
    if (kind_ == ValueKind::kString) {
      new (&s_) std::string(std::move(other.s_));
    } else {
      CopyScalar(other);
    }
  }
  Value& operator=(const Value& other) {
    if (this == &other) return *this;
    if (kind_ == ValueKind::kString && other.kind_ == ValueKind::kString) {
      s_ = other.s_;
      return *this;
    }
    Reset();
    kind_ = other.kind_;
    if (kind_ == ValueKind::kString) {
      new (&s_) std::string(other.s_);
    } else {
      CopyScalar(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    if (kind_ == ValueKind::kString && other.kind_ == ValueKind::kString) {
      s_ = std::move(other.s_);
      return *this;
    }
    Reset();
    kind_ = other.kind_;
    if (kind_ == ValueKind::kString) {
      new (&s_) std::string(std::move(other.s_));
    } else {
      CopyScalar(other);
    }
    return *this;
  }
  ~Value() { Reset(); }

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind() == ValueKind::kNull; }

  // Each accessor requires the matching kind().
  bool bool_value() const { return b_; }
  int64_t int_value() const { return i_; }
  double double_value() const { return d_; }
  const std::string& string_value() const { return s_; }

  /// True if the kind is kInt or kDouble.
  bool is_numeric() const {
    return kind() == ValueKind::kInt || kind() == ValueKind::kDouble;
  }
  /// Numeric value widened to double; only valid when is_numeric().
  double AsDouble() const {
    return kind() == ValueKind::kInt ? static_cast<double>(int_value())
                                     : double_value();
  }

  /// SQL comparison: returns kUnknown if either side is NULL, an error
  /// status if the kinds are incomparable (e.g. INT vs STRING).
  /// On success `*out` is <0, 0, >0.
  static Result<TriBool> SqlEquals(const Value& a, const Value& b);
  static Result<TriBool> SqlLess(const Value& a, const Value& b);
  static Result<TriBool> SqlLessEquals(const Value& a, const Value& b);

  /// Total order for sorting/grouping. NULL < BOOL < numeric < STRING;
  /// NULL == NULL. Never fails: cross-kind compares order by kind.
  static int CompareTotal(const Value& a, const Value& b);
  /// Grouping equality: NULL equals NULL; numerics compare by value.
  static bool EqualsGrouping(const Value& a, const Value& b) {
    return CompareTotal(a, b) == 0;
  }

  /// Arithmetic with SQL NULL propagation and int->double promotion.
  /// INT/INT is integer division, as in SQL. An INT result that does not
  /// fit in int64 (including INT64_MIN / -1 and -INT64_MIN) is a typed
  /// ExecutionError, never a wrapped value.
  static Result<Value> Add(const Value& a, const Value& b);
  static Result<Value> Subtract(const Value& a, const Value& b);
  static Result<Value> Multiply(const Value& a, const Value& b);
  static Result<Value> Divide(const Value& a, const Value& b);
  static Result<Value> Negate(const Value& a);

  /// Hash consistent with EqualsGrouping (numerics hash by double value).
  size_t Hash() const;

  /// Approximate heap+inline footprint in bytes, used by the resource
  /// governor's memory accounting. Content-based (string *size*, not
  /// capacity) so identical data always charges identical bytes — the
  /// governor's peak-bytes figure must not shift with allocator luck or
  /// thread count.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(
        sizeof(Value) +
        (kind() == ValueKind::kString ? string_value().size() : 0));
  }

  /// Literal-style rendering: NULL, TRUE, 42, 3.5, 'text'.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return EqualsGrouping(a, b);
  }

 private:
  // Copies the eight payload bytes of a non-string value.
  void CopyScalar(const Value& other) {
    std::memcpy(&bits_, &other.bits_, sizeof(bits_));
  }
  // Ends the string member's lifetime, if it is the live one.
  void Reset() {
    if (kind_ == ValueKind::kString) s_.~basic_string();
  }

  union {
    uint64_t bits_;  ///< the payload bytes of bool/int/double values
    bool b_;
    int64_t i_;
    double d_;
    std::string s_;
  };
  ValueKind kind_;
};

static_assert(sizeof(Value) ==
                  sizeof(std::variant<std::monostate, bool, int64_t, double,
                                      std::string>),
              "Value must occupy what a variant of its kinds would: "
              "MemoryBytes charges sizeof(Value)");

}  // namespace starmagic

#endif  // STARMAGIC_COMMON_VALUE_H_
