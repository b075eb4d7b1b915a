// Unit + property tests for attribute constraints: matching, the covering
// (implication) relation and the relax_join least-upper-bound.
#include "cake/filter/constraint.hpp"

#include <gtest/gtest.h>

#include "cake/util/rng.hpp"

namespace cake::filter {
namespace {

using event::EventImage;
using value::Value;

EventImage stock_image(double price) {
  return EventImage{"Stock",
                    {{"symbol", Value{"Foo"}}, {"price", Value{price}}}};
}

TEST(Constraint, MatchesPresentAttribute) {
  const AttributeConstraint c{"price", Op::Lt, Value{10.0}};
  EXPECT_TRUE(c.matches(stock_image(9.0)));
  EXPECT_FALSE(c.matches(stock_image(11.0)));
}

TEST(Constraint, AbsentAttributeOnlySatisfiesWildcard) {
  const EventImage image{"Stock", {{"symbol", Value{"Foo"}}}};
  EXPECT_FALSE(AttributeConstraint({"price", Op::Lt, Value{10.0}}).matches(image));
  EXPECT_FALSE(AttributeConstraint({"price", Op::Exists, {}}).matches(image));
  EXPECT_TRUE(AttributeConstraint({"price", Op::Any, {}}).matches(image));
}

TEST(Constraint, ExistsRequiresOnlyPresence) {
  EXPECT_TRUE(AttributeConstraint({"price", Op::Exists, {}}).matches(stock_image(1.0)));
}

TEST(Constraint, EncodeDecodeRoundTrip) {
  const AttributeConstraint cases[] = {
      {"price", Op::Lt, Value{10.0}},
      {"symbol", Op::Eq, Value{"Foo"}},
      {"volume", Op::Exists, {}},
      {"title", Op::Any, {}},
      {"name", Op::Prefix, Value{"ab"}},
  };
  for (const auto& c : cases) {
    wire::Writer w;
    c.encode(w);
    wire::Reader r{w.bytes()};
    EXPECT_EQ(AttributeConstraint::decode(r), c);
  }
}

TEST(Constraint, ToStringPaperRendering) {
  EXPECT_EQ(AttributeConstraint({"price", Op::Lt, Value{5.0}}).to_string(),
            "(price, 5.0, <)");
  EXPECT_EQ(AttributeConstraint({"symbol", Op::Any, {}}).to_string(),
            "(symbol, ALL, =)");
  EXPECT_EQ(AttributeConstraint({"volume", Op::Exists, {}}).to_string(),
            "(volume, ∃)");
}

// ---- covering -------------------------------------------------------------

struct CoverCase {
  AttributeConstraint weaker;
  AttributeConstraint stronger;
  bool expected;
};

class CoverTable : public ::testing::TestWithParam<CoverCase> {};

TEST_P(CoverTable, Covers) {
  const CoverCase& c = GetParam();
  EXPECT_EQ(covers(c.weaker, c.stronger), c.expected)
      << c.weaker.to_string() << " vs " << c.stronger.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Basics, CoverTable,
    ::testing::Values(
        // different attributes never cover
        CoverCase{{"a", Op::Any, {}}, {"b", Op::Eq, Value{1}}, false},
        // wildcard covers everything on the same attribute
        CoverCase{{"a", Op::Any, {}}, {"a", Op::Eq, Value{1}}, true},
        CoverCase{{"a", Op::Any, {}}, {"a", Op::Any, {}}, true},
        // nothing but the wildcard covers a wildcard
        CoverCase{{"a", Op::Exists, {}}, {"a", Op::Any, {}}, false},
        CoverCase{{"a", Op::Eq, Value{1}}, {"a", Op::Any, {}}, false},
        // Exists covers every presence-requiring constraint
        CoverCase{{"a", Op::Exists, {}}, {"a", Op::Eq, Value{1}}, true},
        CoverCase{{"a", Op::Exists, {}}, {"a", Op::Lt, Value{1}}, true},
        CoverCase{{"a", Op::Exists, {}}, {"a", Op::Exists, {}}, true},
        CoverCase{{"a", Op::Eq, Value{1}}, {"a", Op::Exists, {}}, false}));

INSTANTIATE_TEST_SUITE_P(
    PaperExample2, CoverTable,
    ::testing::Values(
        // f = (symbol, Foo, =) (price, 5.0, >); Example 2's f'' and f'''
        CoverCase{{"price", Op::Gt, Value{5.0}}, {"price", Op::Gt, Value{5.0}}, true},
        CoverCase{{"price", Op::Ge, Value{4.5}}, {"price", Op::Gt, Value{5.0}}, true},
        CoverCase{{"symbol", Op::Eq, Value{"Foo"}},
                  {"symbol", Op::Eq, Value{"Foo"}},
                  true},
        // Example 5: (price, 11.0, <) covers (price, 10.0, <)
        CoverCase{{"price", Op::Lt, Value{11.0}}, {"price", Op::Lt, Value{10.0}}, true},
        CoverCase{{"price", Op::Lt, Value{10.0}}, {"price", Op::Lt, Value{11.0}}, false}));

INSTANTIATE_TEST_SUITE_P(
    Bounds, CoverTable,
    ::testing::Values(
        CoverCase{{"p", Op::Lt, Value{10}}, {"p", Op::Le, Value{9}}, true},
        CoverCase{{"p", Op::Lt, Value{10}}, {"p", Op::Le, Value{10}}, false},
        CoverCase{{"p", Op::Le, Value{10}}, {"p", Op::Lt, Value{10}}, true},
        CoverCase{{"p", Op::Le, Value{10}}, {"p", Op::Eq, Value{10}}, true},
        CoverCase{{"p", Op::Lt, Value{10}}, {"p", Op::Eq, Value{10}}, false},
        CoverCase{{"p", Op::Lt, Value{10}}, {"p", Op::Eq, Value{9.5}}, true},
        CoverCase{{"p", Op::Gt, Value{5}}, {"p", Op::Ge, Value{6}}, true},
        CoverCase{{"p", Op::Gt, Value{5}}, {"p", Op::Ge, Value{5}}, false},
        CoverCase{{"p", Op::Ge, Value{5}}, {"p", Op::Gt, Value{5}}, true},
        CoverCase{{"p", Op::Ge, Value{5}}, {"p", Op::Eq, Value{5}}, true},
        // opposite-direction bounds never cover
        CoverCase{{"p", Op::Lt, Value{10}}, {"p", Op::Gt, Value{5}}, false},
        CoverCase{{"p", Op::Gt, Value{5}}, {"p", Op::Lt, Value{10}}, false},
        // incomparable operand kinds are never covering
        CoverCase{{"p", Op::Lt, Value{"x"}}, {"p", Op::Lt, Value{5}}, false}));

INSTANTIATE_TEST_SUITE_P(
    NeAndPrefix, CoverTable,
    ::testing::Values(
        CoverCase{{"p", Op::Ne, Value{5}}, {"p", Op::Eq, Value{6}}, true},
        CoverCase{{"p", Op::Ne, Value{5}}, {"p", Op::Eq, Value{5}}, false},
        CoverCase{{"p", Op::Ne, Value{5}}, {"p", Op::Ne, Value{5}}, true},
        CoverCase{{"p", Op::Ne, Value{5}}, {"p", Op::Ne, Value{6}}, false},
        CoverCase{{"p", Op::Ne, Value{10}}, {"p", Op::Lt, Value{10}}, true},
        CoverCase{{"p", Op::Ne, Value{9}}, {"p", Op::Lt, Value{10}}, false},
        CoverCase{{"p", Op::Ne, Value{10}}, {"p", Op::Le, Value{10}}, false},
        CoverCase{{"p", Op::Ne, Value{11}}, {"p", Op::Le, Value{10}}, true},
        CoverCase{{"p", Op::Ne, Value{5}}, {"p", Op::Gt, Value{5}}, true},
        CoverCase{{"s", Op::Ne, Value{"zz"}}, {"s", Op::Prefix, Value{"a"}}, true},
        CoverCase{{"s", Op::Ne, Value{"ab"}}, {"s", Op::Prefix, Value{"a"}}, false},
        CoverCase{{"s", Op::Prefix, Value{"a"}}, {"s", Op::Prefix, Value{"ab"}}, true},
        CoverCase{{"s", Op::Prefix, Value{"ab"}}, {"s", Op::Prefix, Value{"a"}}, false},
        CoverCase{{"s", Op::Prefix, Value{"a"}}, {"s", Op::Eq, Value{"abc"}}, true},
        CoverCase{{"s", Op::Prefix, Value{"b"}}, {"s", Op::Eq, Value{"abc"}}, false},
        CoverCase{{"s", Op::Eq, Value{"a"}}, {"s", Op::Prefix, Value{"a"}}, false}));

// ---- property: covering is semantically sound ------------------------------
//
// For randomly generated constraint pairs on a numeric attribute, whenever
// covers(w, s) holds, every event value satisfying s must satisfy w.

AttributeConstraint random_numeric_constraint(util::Rng& rng) {
  static const Op ops[] = {Op::Eq, Op::Ne, Op::Lt, Op::Le,
                           Op::Gt, Op::Ge, Op::Exists, Op::Any};
  const Op op = ops[rng.below(std::size(ops))];
  return {"p", op, Value{static_cast<double>(rng.between(-5, 5))}};
}

TEST(ConstraintProperty, CoveringImpliesImplicationOnSampledValues) {
  util::Rng rng{2002};
  int covering_pairs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const AttributeConstraint weaker = random_numeric_constraint(rng);
    const AttributeConstraint stronger = random_numeric_constraint(rng);
    if (!covers(weaker, stronger)) continue;
    ++covering_pairs;
    for (double v = -6.0; v <= 6.0; v += 0.5) {
      const EventImage image{"T", {{"p", Value{v}}}};
      if (stronger.matches(image)) {
        EXPECT_TRUE(weaker.matches(image))
            << weaker.to_string() << " should cover " << stronger.to_string()
            << " but fails at p=" << v;
      }
    }
  }
  EXPECT_GT(covering_pairs, 100);  // the sweep must actually exercise covering
}

// ---- relax_join -----------------------------------------------------------

TEST(RelaxJoin, DifferentAttributesThrow) {
  EXPECT_THROW(relax_join({"a", Op::Eq, Value{1}}, {"b", Op::Eq, Value{1}}),
               std::invalid_argument);
}

TEST(RelaxJoin, CoveringInputWins) {
  const AttributeConstraint wide{"p", Op::Lt, Value{11.0}};
  const AttributeConstraint narrow{"p", Op::Lt, Value{10.0}};
  EXPECT_EQ(relax_join(wide, narrow), wide);
  EXPECT_EQ(relax_join(narrow, wide), wide);
}

TEST(RelaxJoin, UpperBoundsKeepLaxer) {
  const auto j = relax_join({"p", Op::Lt, Value{10.0}}, {"p", Op::Le, Value{12.0}});
  EXPECT_EQ(j, (AttributeConstraint{"p", Op::Le, Value{12.0}}));
}

TEST(RelaxJoin, LowerBoundsKeepLaxer) {
  const auto j = relax_join({"p", Op::Gt, Value{3.0}}, {"p", Op::Ge, Value{5.0}});
  EXPECT_EQ(j, (AttributeConstraint{"p", Op::Gt, Value{3.0}}));
}

TEST(RelaxJoin, PointPlusUpperBoundWidens) {
  const auto j = relax_join({"p", Op::Eq, Value{15.0}}, {"p", Op::Lt, Value{10.0}});
  EXPECT_EQ(j, (AttributeConstraint{"p", Op::Le, Value{15.0}}));
}

TEST(RelaxJoin, PointPlusLowerBoundWidens) {
  const auto j = relax_join({"p", Op::Eq, Value{2.0}}, {"p", Op::Gt, Value{5.0}});
  EXPECT_EQ(j, (AttributeConstraint{"p", Op::Ge, Value{2.0}}));
}

TEST(RelaxJoin, StringsJoinToCommonPrefix) {
  const auto j = relax_join({"s", Op::Eq, Value{"conf-12"}},
                            {"s", Op::Eq, Value{"conf-19"}});
  EXPECT_EQ(j, (AttributeConstraint{"s", Op::Prefix, Value{"conf-1"}}));
}

TEST(RelaxJoin, DisjointStringsFallToExists) {
  const auto j = relax_join({"s", Op::Eq, Value{"abc"}}, {"s", Op::Eq, Value{"xyz"}});
  EXPECT_EQ(j.op, Op::Exists);
}

TEST(RelaxJoin, MixedDirectionsFallToExists) {
  const auto j = relax_join({"p", Op::Lt, Value{10.0}}, {"p", Op::Gt, Value{20.0}});
  EXPECT_EQ(j.op, Op::Exists);
}

// Property: the join covers both inputs, on every generated pair.
TEST(RelaxJoinProperty, JoinCoversBothInputsSemantically) {
  util::Rng rng{77};
  for (int trial = 0; trial < 3000; ++trial) {
    const AttributeConstraint a = random_numeric_constraint(rng);
    const AttributeConstraint b = random_numeric_constraint(rng);
    const AttributeConstraint j = relax_join(a, b);
    for (double v = -6.0; v <= 6.0; v += 0.5) {
      const EventImage image{"T", {{"p", Value{v}}}};
      if (a.matches(image) || b.matches(image)) {
        EXPECT_TRUE(j.matches(image))
            << "join " << j.to_string() << " of " << a.to_string() << " and "
            << b.to_string() << " fails at p=" << v;
      }
    }
    // And on the absent-attribute case.
    const EventImage empty{"T", {}};
    if (a.matches(empty) || b.matches(empty)) {
      EXPECT_TRUE(j.matches(empty));
    }
  }
}

}  // namespace
}  // namespace cake::filter
