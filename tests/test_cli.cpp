// Unit tests for the command-line flag parser.
#include "cake/util/cli.hpp"

#include <gtest/gtest.h>

namespace cake::util {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs{static_cast<int>(argv.size()), argv.data()};
}

TEST(Cli, SpaceAndEqualsForms) {
  const CliArgs args = parse({"--events", "5000", "--seed=42"});
  EXPECT_EQ(args.get("events", std::int64_t{0}), 5000);
  EXPECT_EQ(args.get("seed", std::int64_t{0}), 42);
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get("events", std::int64_t{123}), 123);
  EXPECT_EQ(args.get("skew", 1.5), 1.5);
  EXPECT_EQ(args.get("name", std::string{"x"}), "x");
  EXPECT_FALSE(args.get("verbose", false));
  EXPECT_FALSE(args.has("events"));
}

TEST(Cli, BareBooleanFlag) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.get("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=yes"}).get("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get("x", false));
  EXPECT_FALSE(parse({"--x=off"}).get("x", true));
  EXPECT_FALSE(parse({"--x=false"}).get("x", true));
  EXPECT_THROW((void)parse({"--x=maybe"}).get("x", false), CliError);
}

TEST(Cli, Doubles) {
  EXPECT_DOUBLE_EQ(parse({"--skew", "1.25"}).get("skew", 0.0), 1.25);
  EXPECT_THROW((void)parse({"--skew", "fast"}).get("skew", 0.0), CliError);
}

TEST(Cli, IntegerValidation) {
  EXPECT_EQ(parse({"--n", "-7"}).get("n", std::int64_t{0}), -7);
  EXPECT_THROW((void)parse({"--n", "12x"}).get("n", std::int64_t{0}), CliError);
  EXPECT_THROW((void)parse({"--n", ""}).get("n", std::int64_t{0}), CliError);
}

TEST(Cli, Lists) {
  const auto list = parse({"--stages", "1,10,100"})
                        .get_list("stages", {});
  EXPECT_EQ(list, (std::vector<std::size_t>{1, 10, 100}));
  EXPECT_EQ(parse({}).get_list("stages", {1, 2}),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_THROW(parse({"--stages", "1,x"}).get_list("stages", {}), CliError);
}

TEST(Cli, PositionalArguments) {
  const CliArgs args = parse({"input.txt", "--n", "3", "more"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.txt", "more"}));
}

TEST(Cli, DuplicateFlagThrows) {
  EXPECT_THROW(parse({"--n", "1", "--n", "2"}), CliError);
}

TEST(Cli, UnknownFlagRejectedByAllow) {
  CliArgs args = parse({"--evnets", "5"});  // typo
  EXPECT_THROW(args.allow({"events", "seed"}), CliError);
}

TEST(Cli, AllowAcceptsDeclaredFlags) {
  CliArgs args = parse({"--events", "5"});
  EXPECT_NO_THROW(args.allow({"events", "seed"}));
  EXPECT_EQ(args.get("events", std::int64_t{0}), 5);
  EXPECT_THROW((void)args.get("undeclared", std::int64_t{0}), CliError);
}

TEST(Cli, UsageListsDeclaredFlags) {
  CliArgs args = parse({});
  args.allow({"events", "seed"});
  const std::string usage = args.usage("sim");
  EXPECT_NE(usage.find("--events"), std::string::npos);
  EXPECT_NE(usage.find("--seed"), std::string::npos);
}

TEST(Cli, NegativeNumberAsValueNotFlag) {
  // "-7" does not start with "--": consumed as the value of --n.
  const CliArgs args = parse({"--n", "-7"});
  EXPECT_EQ(args.get("n", std::int64_t{0}), -7);
}

TEST(Cli, ChoiceAcceptsListedValuesAndFallback) {
  EXPECT_EQ(parse({"--engine", "counting"})
                .get_choice("engine", "naive", {"naive", "counting"}),
            "counting");
  EXPECT_EQ(parse({}).get_choice("engine", "naive", {"naive", "counting"}),
            "naive");
}

TEST(Cli, ChoiceRejectsUnlistedValueNamingTheChoices) {
  const CliArgs args = parse({"--engine", "trie"});
  try {
    (void)args.get_choice("engine", "naive", {"naive", "counting"});
    FAIL() << "an unlisted value must throw";
  } catch (const CliError& error) {
    EXPECT_STREQ(error.what(),
                 "--engine expects one of naive|counting, got 'trie'");
  }
  EXPECT_THROW((void)parse({"--engine"}).get_choice("engine", "naive",
                                                    {"naive", "counting"}),
               CliError);  // bare flag = empty value, not the fallback
}

}  // namespace
}  // namespace cake::util
