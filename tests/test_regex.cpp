// Tests for the Thompson-NFA regex engine and its Op::Regex integration
// into the subscription language (§2.1's "regular expressions" rung).
#include "cake/util/regex.hpp"

#include <gtest/gtest.h>

#include "cake/filter/constraint.hpp"

namespace cake::util {
namespace {

struct MatchCase {
  const char* pattern;
  const char* subject;
  bool expected;
};

class RegexTable : public ::testing::TestWithParam<MatchCase> {};

TEST_P(RegexTable, AnchoredMatch) {
  const MatchCase& c = GetParam();
  EXPECT_EQ(Regex{c.pattern}.matches(c.subject), c.expected)
      << '"' << c.pattern << "\" vs \"" << c.subject << '"';
}

INSTANTIATE_TEST_SUITE_P(
    Literals, RegexTable,
    ::testing::Values(MatchCase{"abc", "abc", true},
                      MatchCase{"abc", "abx", false},
                      MatchCase{"abc", "ab", false},
                      MatchCase{"abc", "abcd", false},  // anchored
                      MatchCase{"", "", true},
                      MatchCase{"", "a", false},
                      MatchCase{"a", "", false}));

INSTANTIATE_TEST_SUITE_P(
    Metacharacters, RegexTable,
    ::testing::Values(MatchCase{"a.c", "abc", true},
                      MatchCase{"a.c", "axc", true},
                      MatchCase{"a.c", "ac", false},
                      MatchCase{"a*", "", true},
                      MatchCase{"a*", "aaaa", true},
                      MatchCase{"a*", "aab", false},
                      MatchCase{"a+", "", false},
                      MatchCase{"a+", "aaa", true},
                      MatchCase{"a?b", "ab", true},
                      MatchCase{"a?b", "b", true},
                      MatchCase{"a?b", "aab", false},
                      MatchCase{".*", "anything at all", true},
                      MatchCase{".*foo.*", "xxfooyy", true},
                      MatchCase{".*foo.*", "xxfoyy", false}));

INSTANTIATE_TEST_SUITE_P(
    Alternation, RegexTable,
    ::testing::Values(MatchCase{"cat|dog", "cat", true},
                      MatchCase{"cat|dog", "dog", true},
                      MatchCase{"cat|dog", "cow", false},
                      MatchCase{"a(b|c)d", "abd", true},
                      MatchCase{"a(b|c)d", "acd", true},
                      MatchCase{"a(b|c)d", "ad", false},
                      MatchCase{"(ab)+", "ababab", true},
                      MatchCase{"(ab)+", "aba", false},
                      MatchCase{"x(y|)z", "xyz", true},
                      MatchCase{"x(y|)z", "xz", true},
                      MatchCase{"a|", "a", true},
                      MatchCase{"a|", "", true}));

INSTANTIATE_TEST_SUITE_P(
    Classes, RegexTable,
    ::testing::Values(MatchCase{"[abc]", "b", true},
                      MatchCase{"[abc]", "d", false},
                      MatchCase{"[a-z]+", "hello", true},
                      MatchCase{"[a-z]+", "Hello", false},
                      MatchCase{"[a-zA-Z0-9]*", "Az9", true},
                      MatchCase{"[^0-9]+", "abc", true},
                      MatchCase{"[^0-9]+", "ab3", false},
                      MatchCase{"[-a]", "-", true},   // leading '-' literal
                      MatchCase{"[a-]", "-", true},   // trailing '-' literal
                      MatchCase{"title-[0-9]+-.*", "title-12-0-3-1", true},
                      MatchCase{"title-[0-9]+-.*", "titleX-12", false}));

INSTANTIATE_TEST_SUITE_P(
    Escapes, RegexTable,
    ::testing::Values(MatchCase{"a\\.c", "a.c", true},
                      MatchCase{"a\\.c", "abc", false},
                      MatchCase{"a\\*b", "a*b", true},
                      MatchCase{"\\\\", "\\", true},
                      MatchCase{"[\\]]", "]", true},
                      MatchCase{"conf\\-[0-9]", "conf-7", true}));

TEST(Regex, SyntaxErrorsThrow) {
  EXPECT_THROW(Regex{"("}, RegexError);
  EXPECT_THROW(Regex{")"}, RegexError);
  EXPECT_THROW(Regex{"a)"}, RegexError);
  EXPECT_THROW(Regex{"(a"}, RegexError);
  EXPECT_THROW(Regex{"*a"}, RegexError);
  EXPECT_THROW(Regex{"|*"}, RegexError);
  EXPECT_THROW(Regex{"[abc"}, RegexError);
  EXPECT_THROW(Regex{"[]"}, RegexError);
  EXPECT_THROW(Regex{"[z-a]"}, RegexError);
  EXPECT_THROW(Regex{"a\\"}, RegexError);
  EXPECT_THROW(Regex{"]"}, RegexError);
}

TEST(Regex, NoPathologicalBacktracking) {
  // (a*)*b against a^40: catastrophic for backtrackers, linear here.
  const Regex regex{"(a*)*b"};
  const std::string subject(40, 'a');
  EXPECT_FALSE(regex.matches(subject));
  EXPECT_TRUE(regex.matches(subject + 'b'));
}

TEST(Regex, CachedReturnsSameCompilation) {
  const Regex* a = Regex::cached("ab+c");
  const Regex* b = Regex::cached("ab+c");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a->matches("abbc"));
  // A malformed pattern is cached as a failure: null, every time.
  EXPECT_EQ(Regex::cached("("), nullptr);
  EXPECT_EQ(Regex::cached("("), nullptr);
}

// ---- Op::Regex in the subscription language ---------------------------------

TEST(RegexOp, MatchesStringAttributes) {
  using filter::Op;
  const filter::AttributeConstraint c{"title", Op::Regex,
                                      value::Value{"title-0-.*"}};
  const event::EventImage hit{"Publication",
                              {{"title", value::Value{"title-0-3-1-0"}}}};
  const event::EventImage miss{"Publication",
                               {{"title", value::Value{"title-1-3-1-0"}}}};
  EXPECT_TRUE(c.matches(hit));
  EXPECT_FALSE(c.matches(miss));
}

TEST(RegexOp, NonStringValuesNeverMatch) {
  using filter::Op;
  EXPECT_FALSE(applies(Op::Regex, value::Value{42}, value::Value{"4.*"}));
  EXPECT_FALSE(applies(Op::Regex, value::Value{"42"}, value::Value{42}));
}

TEST(RegexOp, InvalidPatternMatchesNothingInsteadOfThrowing) {
  using filter::Op;
  EXPECT_FALSE(applies(Op::Regex, value::Value{"x"}, value::Value{"("}));
}

TEST(RegexOp, CoveringRules) {
  using filter::AttributeConstraint;
  using filter::Op;
  using value::Value;
  const AttributeConstraint pattern{"t", Op::Regex, Value{"abc.*"}};
  const AttributeConstraint same{"t", Op::Regex, Value{"abc.*"}};
  const AttributeConstraint other{"t", Op::Regex, Value{"abd.*"}};
  const AttributeConstraint matching_point{"t", Op::Eq, Value{"abcde"}};
  const AttributeConstraint non_matching_point{"t", Op::Eq, Value{"xyz"}};
  const AttributeConstraint any{"t", Op::Any, {}};
  const AttributeConstraint exists{"t", Op::Exists, {}};

  EXPECT_TRUE(covers(pattern, same));
  EXPECT_FALSE(covers(pattern, other));
  EXPECT_TRUE(covers(pattern, matching_point));
  EXPECT_FALSE(covers(pattern, non_matching_point));
  EXPECT_TRUE(covers(any, pattern));
  EXPECT_TRUE(covers(exists, pattern));
  EXPECT_FALSE(covers(pattern, any));
  // Ne v covers a pattern that rejects v.
  const AttributeConstraint ne{"t", Op::Ne, Value{"zzz"}};
  EXPECT_TRUE(covers(ne, pattern));
  const AttributeConstraint ne_hit{"t", Op::Ne, Value{"abcq"}};
  EXPECT_FALSE(covers(ne_hit, pattern));
}

TEST(RegexOp, ToStringRendering) {
  const filter::AttributeConstraint c{"title", filter::Op::Regex,
                                      value::Value{"a.*"}};
  EXPECT_EQ(c.to_string(), "(title, \"a.*\", ~)");
}

TEST(RegexOp, WireRoundTrip) {
  const filter::AttributeConstraint c{"title", filter::Op::Regex,
                                      value::Value{"[a-z]+"}};
  wire::Writer w;
  c.encode(w);
  wire::Reader r{w.bytes()};
  EXPECT_EQ(filter::AttributeConstraint::decode(r), c);
}

}  // namespace
}  // namespace cake::util
