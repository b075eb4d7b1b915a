// Unit tests for the dynamically-typed attribute value.
#include "cake/value/value.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cake::value {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_EQ(v.kind(), Kind::Null);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
}

TEST(Value, KindsAreDetected) {
  EXPECT_EQ(Value{true}.kind(), Kind::Bool);
  EXPECT_EQ(Value{std::int64_t{4}}.kind(), Kind::Int);
  EXPECT_EQ(Value{4}.kind(), Kind::Int);
  EXPECT_EQ(Value{4.0}.kind(), Kind::Double);
  EXPECT_EQ(Value{"hi"}.kind(), Kind::String);
  EXPECT_EQ(Value{std::string{"hi"}}.kind(), Kind::String);
}

TEST(Value, AccessorsReturnStoredValues) {
  EXPECT_EQ(Value{true}.as_bool(), true);
  EXPECT_EQ(Value{42}.as_int(), 42);
  EXPECT_EQ(Value{2.5}.as_double(), 2.5);
  EXPECT_EQ(Value{"abc"}.as_string(), "abc");
}

TEST(Value, AccessorKindMismatchThrows) {
  EXPECT_THROW((void)Value{1}.as_string(), std::bad_variant_access);
  EXPECT_THROW((void)Value{"x"}.as_int(), std::bad_variant_access);
}

TEST(Value, NumericPromotionInEquality) {
  EXPECT_EQ(Value{1}, Value{1.0});
  EXPECT_EQ(Value{0}, Value{0.0});
  EXPECT_FALSE(Value{1} == Value{1.5});
}

TEST(Value, AsNumberOnlyForNumerics) {
  EXPECT_EQ(Value{3}.as_number(), 3.0);
  EXPECT_EQ(Value{3.5}.as_number(), 3.5);
  EXPECT_FALSE(Value{"3"}.as_number().has_value());
  EXPECT_FALSE(Value{true}.as_number().has_value());
  EXPECT_FALSE(Value{}.as_number().has_value());
}

TEST(Value, CompareNumericCrossKind) {
  EXPECT_EQ(Value{1}.compare(Value{2.0}), -1);
  EXPECT_EQ(Value{2.0}.compare(Value{1}), 1);
  EXPECT_EQ(Value{2}.compare(Value{2.0}), 0);
}

TEST(Value, CompareStrings) {
  EXPECT_EQ(Value{"abc"}.compare(Value{"abd"}), -1);
  EXPECT_EQ(Value{"b"}.compare(Value{"a"}), 1);
  EXPECT_EQ(Value{"x"}.compare(Value{"x"}), 0);
}

TEST(Value, CompareBools) {
  EXPECT_EQ(Value{false}.compare(Value{true}), -1);
  EXPECT_EQ(Value{true}.compare(Value{true}), 0);
}

TEST(Value, IncomparableKindsReturnNullopt) {
  EXPECT_FALSE(Value{"1"}.compare(Value{1}).has_value());
  EXPECT_FALSE(Value{true}.compare(Value{1}).has_value());
  EXPECT_FALSE(Value{}.compare(Value{}).has_value());
  EXPECT_FALSE(Value{}.compare(Value{1}).has_value());
}

TEST(Value, CrossKindEqualityIsFalseNotError) {
  EXPECT_FALSE(Value{"1"} == Value{1});
  EXPECT_FALSE(Value{true} == Value{1});
  EXPECT_TRUE(Value{} == Value{});
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value{1}.hash(), Value{1.0}.hash());
  EXPECT_EQ(Value{"abc"}.hash(), Value{std::string{"abc"}}.hash());
  // distinct values *usually* hash apart (not guaranteed, but these should)
  EXPECT_NE(Value{1}.hash(), Value{2}.hash());
  EXPECT_NE(Value{"a"}.hash(), Value{}.hash());
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value{}.to_string(), "null");
  EXPECT_EQ(Value{true}.to_string(), "true");
  EXPECT_EQ(Value{false}.to_string(), "false");
  EXPECT_EQ(Value{10}.to_string(), "10");
  EXPECT_EQ(Value{10.0}.to_string(), "10.0");
  EXPECT_EQ(Value{10.5}.to_string(), "10.5");
  EXPECT_EQ(Value{"Foo"}.to_string(), "\"Foo\"");
}

TEST(Value, NanIsUnorderedButPresent) {
  const Value nan{std::nan("")};
  EXPECT_FALSE(nan.compare(Value{10.0}).has_value());
  EXPECT_FALSE(Value{10.0}.compare(nan).has_value());
  EXPECT_FALSE(nan.compare(nan).has_value());
  EXPECT_FALSE(nan == Value{10.0});
  EXPECT_TRUE(nan.is_numeric());
}

TEST(Value, NegativeNumbers) {
  EXPECT_EQ(Value{-5}.compare(Value{5}), -1);
  EXPECT_EQ(Value{-5}.to_string(), "-5");
  EXPECT_EQ(Value{-2.5}.compare(Value{-2.5}), 0);
}

}  // namespace
}  // namespace cake::value
