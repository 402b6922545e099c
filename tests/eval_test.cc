#include "exec/eval.h"

#include <gtest/gtest.h>

namespace starmagic {
namespace {

ExprPtr Col(int q, int c) { return Expr::MakeColumnRef(q, c); }
ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_FALSE(LikeMatch("hello", "h_llo!"));
  EXPECT_FALSE(LikeMatch("hello", "H%"));  // case sensitive
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));  // '%' in text matches via pattern %
  EXPECT_FALSE(LikeMatch("xay", "a%"));
}

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() {
    row_ = {Value::Int(5), Value::String("abc"), Value::Null(),
            Value::Double(2.5)};
    env_.Bind(1, &row_);
  }
  Row row_;
  RowEnv env_;
};

TEST_F(EvalTest, ColumnLookup) {
  auto v = EvalScalar(*Col(1, 0), env_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 5);
}

TEST_F(EvalTest, UnboundQuantifierFails) {
  auto v = EvalScalar(*Col(9, 0), env_);
  EXPECT_FALSE(v.ok());
}

TEST_F(EvalTest, ArithmeticWithPromotion) {
  ExprPtr e = Expr::MakeBinary(BinaryOp::kMul, Col(1, 0), Col(1, 3));
  auto v = EvalScalar(*e, env_);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 12.5);
}

TEST_F(EvalTest, NullPropagatesThroughArithmetic) {
  ExprPtr e = Expr::MakeBinary(BinaryOp::kAdd, Col(1, 0), Col(1, 2));
  auto v = EvalScalar(*e, env_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST_F(EvalTest, ComparisonThreeValued) {
  ExprPtr eq_null = Expr::MakeBinary(BinaryOp::kEq, Col(1, 2), Lit(Value::Int(1)));
  auto t = EvalPredicate(*eq_null, env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kUnknown);
  ExprPtr lt = Expr::MakeBinary(BinaryOp::kLt, Col(1, 0), Lit(Value::Int(10)));
  t = EvalPredicate(*lt, env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kTrue);
}

TEST_F(EvalTest, AndOrShortCircuitKeepsSqlSemantics) {
  // FALSE AND <error> must still be FALSE thanks to short circuiting.
  ExprPtr false_lit = Lit(Value::Bool(false));
  ExprPtr err = Expr::MakeBinary(BinaryOp::kEq, Col(1, 1), Lit(Value::Int(1)));
  // (string = int) would error if evaluated.
  ExprPtr e = Expr::MakeBinary(BinaryOp::kAnd, std::move(false_lit), std::move(err));
  auto t = EvalPredicate(*e, env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kFalse);

  // UNKNOWN OR TRUE == TRUE.
  ExprPtr u = Expr::MakeBinary(BinaryOp::kEq, Col(1, 2), Lit(Value::Int(1)));
  ExprPtr e2 = Expr::MakeBinary(BinaryOp::kOr, std::move(u), Lit(Value::Bool(true)));
  t = EvalPredicate(*e2, env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kTrue);
}

TEST_F(EvalTest, NotOfUnknownIsUnknown) {
  ExprPtr u = Expr::MakeBinary(BinaryOp::kEq, Col(1, 2), Lit(Value::Int(1)));
  ExprPtr e = Expr::MakeUnary(UnaryOp::kNot, std::move(u));
  auto t = EvalPredicate(*e, env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kUnknown);
}

TEST_F(EvalTest, IsNull) {
  auto t = EvalPredicate(*Expr::MakeIsNull(Col(1, 2), false), env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kTrue);
  t = EvalPredicate(*Expr::MakeIsNull(Col(1, 0), true), env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kTrue);
}

TEST_F(EvalTest, LikeOnNullIsUnknown) {
  auto t = EvalPredicate(*Expr::MakeLike(Col(1, 2), "a%", false), env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kUnknown);
  t = EvalPredicate(*Expr::MakeLike(Col(1, 1), "a%", false), env_);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, TriBool::kTrue);
}

TEST_F(EvalTest, NonBooleanPredicateFails) {
  auto t = EvalPredicate(*Col(1, 0), env_);
  EXPECT_FALSE(t.ok());
}

TEST_F(EvalTest, EnvironmentLayering) {
  // A box evaluated under correlation starts from a copy of its caller's
  // environment and binds its own quantifiers on top.
  Row outer = {Value::Int(42)};
  RowEnv parent;
  parent.Bind(7, &outer);
  RowEnv child = parent;
  Row inner = {Value::Int(1)};
  child.Bind(8, &inner);
  auto v = EvalScalar(*Col(7, 0), child);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 42);
  // Shadowing: the child binding wins, and the caller's stays put.
  Row shadow = {Value::Int(9)};
  child.Bind(7, &shadow);
  v = EvalScalar(*Col(7, 0), child);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 9);
  v = EvalScalar(*Col(7, 0), parent);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 42);
  // The child's own binding is invisible to the caller.
  EXPECT_FALSE(EvalScalar(*Col(8, 0), parent).ok());
}

TEST(AggregateExprTest, AggregateOutsideGroupByFails) {
  RowEnv env;
  ExprPtr agg = Expr::MakeAggregate(AggFunc::kSum, false,
                                    Expr::MakeLiteral(Value::Int(1)));
  EXPECT_FALSE(EvalScalar(*agg, env).ok());
}

}  // namespace
}  // namespace starmagic
