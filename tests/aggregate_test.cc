#include "exec/aggregate.h"

#include <gtest/gtest.h>

#include <limits>

namespace starmagic {
namespace {

TEST(AccumulatorTest, CountStarCountsEverythingIncludingNulls) {
  Accumulator acc(AggFunc::kCountStar, false);
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  ASSERT_TRUE(acc.Add(Value::Null()).ok());
  EXPECT_EQ(acc.Finish()->int_value(), 2);
}

TEST(AccumulatorTest, CountIgnoresNulls) {
  Accumulator acc(AggFunc::kCount, false);
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  ASSERT_TRUE(acc.Add(Value::Null()).ok());
  ASSERT_TRUE(acc.Add(Value::Int(3)).ok());
  EXPECT_EQ(acc.Finish()->int_value(), 2);
}

TEST(AccumulatorTest, SumIntStaysInt) {
  Accumulator acc(AggFunc::kSum, false);
  ASSERT_TRUE(acc.Add(Value::Int(2)).ok());
  ASSERT_TRUE(acc.Add(Value::Int(3)).ok());
  Value v = acc.Finish().value();
  EXPECT_EQ(v.kind(), ValueKind::kInt);
  EXPECT_EQ(v.int_value(), 5);
}

TEST(AccumulatorTest, SumPromotesToDouble) {
  Accumulator acc(AggFunc::kSum, false);
  ASSERT_TRUE(acc.Add(Value::Int(2)).ok());
  ASSERT_TRUE(acc.Add(Value::Double(0.5)).ok());
  Value v = acc.Finish().value();
  EXPECT_EQ(v.kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 2.5);
}

TEST(AccumulatorTest, EmptyInputSemantics) {
  EXPECT_EQ(Accumulator(AggFunc::kCount, false).Finish()->int_value(), 0);
  EXPECT_EQ(Accumulator(AggFunc::kCountStar, false).Finish()->int_value(), 0);
  EXPECT_TRUE(Accumulator(AggFunc::kSum, false).Finish()->is_null());
  EXPECT_TRUE(Accumulator(AggFunc::kAvg, false).Finish()->is_null());
  EXPECT_TRUE(Accumulator(AggFunc::kMin, false).Finish()->is_null());
  EXPECT_TRUE(Accumulator(AggFunc::kMax, false).Finish()->is_null());
}

TEST(AccumulatorTest, AvgIsDouble) {
  Accumulator acc(AggFunc::kAvg, false);
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  ASSERT_TRUE(acc.Add(Value::Int(2)).ok());
  Value v = acc.Finish().value();
  EXPECT_EQ(v.kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 1.5);
}

TEST(AccumulatorTest, MinMaxWorkOnStrings) {
  Accumulator mn(AggFunc::kMin, false);
  Accumulator mx(AggFunc::kMax, false);
  for (const char* s : {"pear", "apple", "zebra"}) {
    ASSERT_TRUE(mn.Add(Value::String(s)).ok());
    ASSERT_TRUE(mx.Add(Value::String(s)).ok());
  }
  EXPECT_EQ(mn.Finish()->string_value(), "apple");
  EXPECT_EQ(mx.Finish()->string_value(), "zebra");
}

TEST(AccumulatorTest, DistinctDeduplicates) {
  Accumulator count(AggFunc::kCount, true);
  Accumulator sum(AggFunc::kSum, true);
  for (int v : {5, 5, 3, 5, 3}) {
    ASSERT_TRUE(count.Add(Value::Int(v)).ok());
    ASSERT_TRUE(sum.Add(Value::Int(v)).ok());
  }
  EXPECT_EQ(count.Finish()->int_value(), 2);
  EXPECT_EQ(sum.Finish()->int_value(), 8);
}

TEST(AccumulatorTest, SumOfStringsFails) {
  Accumulator acc(AggFunc::kSum, false);
  EXPECT_FALSE(acc.Add(Value::String("x")).ok());
}

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

TEST(AccumulatorTest, IntSumLeavingInt64IsTypedError) {
  Accumulator acc(AggFunc::kSum, false);
  ASSERT_TRUE(acc.Add(Value::Int(kMax)).ok());
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  Result<Value> v = acc.Finish();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kExecutionError);

  Accumulator low(AggFunc::kSum, false);
  ASSERT_TRUE(low.Add(Value::Int(kMin)).ok());
  ASSERT_TRUE(low.Add(Value::Int(-1)).ok());
  EXPECT_FALSE(low.Finish().ok());
}

TEST(AccumulatorTest, IntSumOnlyChecksTheFinalTotal) {
  // The running total leaves int64 and comes back: the sum is exact.
  Accumulator acc(AggFunc::kSum, false);
  for (int64_t v : {kMax, kMax, -kMax, int64_t{-5}}) {
    ASSERT_TRUE(acc.Add(Value::Int(v)).ok());
  }
  Result<Value> v = acc.Finish();
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->kind(), ValueKind::kInt);
  EXPECT_EQ(v->int_value(), kMax - 5);
}

TEST(AccumulatorTest, LaterDoubleMakesOverflowingIntSumDouble) {
  Accumulator acc(AggFunc::kSum, false);
  ASSERT_TRUE(acc.Add(Value::Int(kMax)).ok());
  ASSERT_TRUE(acc.Add(Value::Int(kMax)).ok());
  ASSERT_TRUE(acc.Add(Value::Double(0.5)).ok());
  Result<Value> v = acc.Finish();
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v->double_value(), 2.0 * static_cast<double>(kMax) + 0.5);
}

}  // namespace
}  // namespace starmagic
