#include "common/value.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/row.h"

namespace starmagic {
namespace {

TEST(TriBoolTest, NotTruthTable) {
  EXPECT_EQ(TriNot(TriBool::kTrue), TriBool::kFalse);
  EXPECT_EQ(TriNot(TriBool::kFalse), TriBool::kTrue);
  EXPECT_EQ(TriNot(TriBool::kUnknown), TriBool::kUnknown);
}

TEST(TriBoolTest, AndTruthTable) {
  EXPECT_EQ(TriAnd(TriBool::kTrue, TriBool::kTrue), TriBool::kTrue);
  EXPECT_EQ(TriAnd(TriBool::kTrue, TriBool::kFalse), TriBool::kFalse);
  EXPECT_EQ(TriAnd(TriBool::kTrue, TriBool::kUnknown), TriBool::kUnknown);
  EXPECT_EQ(TriAnd(TriBool::kFalse, TriBool::kUnknown), TriBool::kFalse);
  EXPECT_EQ(TriAnd(TriBool::kUnknown, TriBool::kUnknown), TriBool::kUnknown);
}

TEST(TriBoolTest, OrTruthTable) {
  EXPECT_EQ(TriOr(TriBool::kFalse, TriBool::kFalse), TriBool::kFalse);
  EXPECT_EQ(TriOr(TriBool::kTrue, TriBool::kUnknown), TriBool::kTrue);
  EXPECT_EQ(TriOr(TriBool::kFalse, TriBool::kUnknown), TriBool::kUnknown);
  EXPECT_EQ(TriOr(TriBool::kUnknown, TriBool::kUnknown), TriBool::kUnknown);
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).kind(), ValueKind::kBool);
  EXPECT_EQ(Value::Int(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
}

TEST(ValueTest, SqlEqualsWithNullIsUnknown) {
  auto r = Value::SqlEquals(Value::Null(), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TriBool::kUnknown);
  r = Value::SqlEquals(Value::Null(), Value::Null());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TriBool::kUnknown);
}

TEST(ValueTest, SqlEqualsCrossNumeric) {
  auto r = Value::SqlEquals(Value::Int(3), Value::Double(3.0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TriBool::kTrue);
}

TEST(ValueTest, SqlEqualsIncompatibleKindsFails) {
  auto r = Value::SqlEquals(Value::Int(3), Value::String("3"));
  EXPECT_FALSE(r.ok());
}

TEST(ValueTest, SqlLess) {
  auto r = Value::SqlLess(Value::Int(1), Value::Int(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TriBool::kTrue);
  r = Value::SqlLess(Value::String("a"), Value::String("b"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TriBool::kTrue);
}

TEST(ValueTest, GroupingTreatsNullEqual) {
  EXPECT_TRUE(Value::EqualsGrouping(Value::Null(), Value::Null()));
  EXPECT_EQ(Value::CompareTotal(Value::Null(), Value::Int(0)), -1);
}

TEST(ValueTest, HashConsistentWithGrouping) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, ArithmeticPromotionAndNullPropagation) {
  auto r = Value::Add(Value::Int(1), Value::Int(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_value(), 3);
  r = Value::Add(Value::Int(1), Value::Double(2.5));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->double_value(), 3.5);
  r = Value::Add(Value::Null(), Value::Int(2));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
}

TEST(ValueTest, DivisionByZeroFails) {
  EXPECT_FALSE(Value::Divide(Value::Int(1), Value::Int(0)).ok());
  EXPECT_FALSE(Value::Divide(Value::Double(1), Value::Double(0)).ok());
}

TEST(ValueTest, IntegerDivisionStaysInt) {
  auto r = Value::Divide(Value::Int(7), Value::Int(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind(), ValueKind::kInt);
  EXPECT_EQ(r->int_value(), 3);
}

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

void ExpectOverflow(const Result<Value>& r) {
  ASSERT_FALSE(r.ok()) << "got " << r->ToString();
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("overflow"), std::string::npos)
      << r.status().ToString();
}

TEST(ValueTest, MinIntDividedByMinusOneIsTypedError) {
  ExpectOverflow(Value::Divide(Value::Int(kMin), Value::Int(-1)));
  auto r = Value::Divide(Value::Int(kMin), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_value(), kMin);
  // Promoted to DOUBLE, the same quotient is representable.
  r = Value::Divide(Value::Int(kMin), Value::Double(-1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind(), ValueKind::kDouble);
}

TEST(ValueTest, IntArithmeticOverflowIsTypedError) {
  ExpectOverflow(Value::Add(Value::Int(kMax), Value::Int(1)));
  ExpectOverflow(Value::Add(Value::Int(kMin), Value::Int(-1)));
  ExpectOverflow(Value::Subtract(Value::Int(kMin), Value::Int(1)));
  ExpectOverflow(Value::Subtract(Value::Int(0), Value::Int(kMin)));
  ExpectOverflow(Value::Multiply(Value::Int(kMax), Value::Int(2)));
  ExpectOverflow(Value::Multiply(Value::Int(kMin), Value::Int(-1)));
  ExpectOverflow(Value::Negate(Value::Int(kMin)));
  // The edges themselves still compute.
  auto r = Value::Add(Value::Int(kMax - 1), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_value(), kMax);
  r = Value::Subtract(Value::Int(-kMax), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_value(), kMin);
  r = Value::Negate(Value::Int(kMax));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_value(), -kMax);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

TEST(RowTest, HashAndEquality) {
  Row a = {Value::Int(1), Value::Null()};
  Row b = {Value::Double(1.0), Value::Null()};
  EXPECT_TRUE(RowsEqualGrouping(a, b));
  EXPECT_EQ(HashRow(a), HashRow(b));
}

TEST(RowTest, CompareRowsLexicographic) {
  Row a = {Value::Int(1), Value::Int(2)};
  Row b = {Value::Int(1), Value::Int(3)};
  EXPECT_LT(CompareRows(a, b), 0);
  EXPECT_GT(CompareRows(b, a), 0);
  EXPECT_EQ(CompareRows(a, a), 0);
}

}  // namespace
}  // namespace starmagic
