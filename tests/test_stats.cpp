// Unit tests for descriptive statistics and the table renderer.
#include "cake/util/stats.hpp"
#include "cake/util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace cake::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.5);
  EXPECT_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-10.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), -10.0);
  EXPECT_EQ(s.max(), 10.0);
}

TEST(RunningStats, MergeMatchesSingleAccumulator) {
  RunningStats all, left, right;
  const double xs[] = {1.0, 5.0, -2.0, 8.5, 3.0, 3.0, 7.25};
  for (int i = 0; i < 7; ++i) {
    all.add(xs[i]);
    (i < 3 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_DOUBLE_EQ(left.mean(), all.mean());
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
  EXPECT_DOUBLE_EQ(left.sum(), all.sum());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, empty;
  a.add(2.0);
  a.add(4.0);
  RunningStats b = a;
  b.merge(empty);                    // no-op
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
  RunningStats c;
  c.merge(a);                        // adopt
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(Percentile, EndpointsClamp) {
  const std::vector<double> sorted{1.0, 2.0, 3.0};
  EXPECT_EQ(percentile(sorted, -5.0), 1.0);
  EXPECT_EQ(percentile(sorted, 0.0), 1.0);
  EXPECT_EQ(percentile(sorted, 100.0), 3.0);
  EXPECT_EQ(percentile(sorted, 150.0), 3.0);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 25.0), 2.5);
}

TEST(Summarize, FullSummary) {
  const Summary s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
}

TEST(Summarize, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t{{"Stage", "RLC"}};
  t.add_row({"0", "2e-07"});
  t.add_row({"13", "0.02"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Stage"), std::string::npos);
  EXPECT_NE(out.find("2e-07"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(FormatNumber, ScientificForTinyValues) {
  EXPECT_EQ(format_number(2e-7), "2e-07");
}

TEST(FormatNumber, FixedForModerateValues) {
  EXPECT_EQ(format_number(0.87), "0.8700");
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(1.0), "1");
  EXPECT_EQ(format_number(150.0), "150");
}

}  // namespace
}  // namespace cake::util
