// Unit + property tests for the Zipf sampler.
#include "cake/util/zipf.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace cake::util {
namespace {

TEST(Zipf, RejectsEmptyUniverse) {
  EXPECT_THROW(Zipf(0, 1.0), std::invalid_argument);
}

TEST(Zipf, RejectsNegativeSkew) {
  EXPECT_THROW(Zipf(10, -0.5), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  for (double skew : {0.0, 0.5, 1.0, 2.0}) {
    Zipf z{100, skew};
    double sum = 0;
    for (std::size_t r = 0; r < z.size(); ++r) sum += z.pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "skew=" << skew;
  }
}

TEST(Zipf, PmfMonotoneNonIncreasing) {
  Zipf z{50, 1.2};
  for (std::size_t r = 1; r < z.size(); ++r)
    EXPECT_LE(z.pmf(r), z.pmf(r - 1) + 1e-12);
}

TEST(Zipf, PmfOutOfRangeThrows) {
  Zipf z{5, 1.0};
  EXPECT_THROW((void)z.pmf(5), std::out_of_range);
}

TEST(Zipf, ZeroSkewIsUniform) {
  Zipf z{8, 0.0};
  for (std::size_t r = 0; r < z.size(); ++r) EXPECT_NEAR(z.pmf(r), 1.0 / 8, 1e-9);
}

TEST(Zipf, SingleElementAlwaysSampled) {
  Zipf z{1, 1.5};
  Rng rng{5};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, SamplesStayInRange) {
  Zipf z{37, 1.1};
  Rng rng{6};
  for (int i = 0; i < 5000; ++i) EXPECT_LT(z.sample(rng), 37u);
}

TEST(Zipf, EmpiricalFrequenciesTrackPmf) {
  Zipf z{10, 1.0};
  Rng rng{7};
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kDraws, z.pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(Zipf, HigherSkewConcentratesHead) {
  Zipf mild{100, 0.5}, steep{100, 2.0};
  EXPECT_GT(steep.pmf(0), mild.pmf(0));
  EXPECT_LT(steep.pmf(99), mild.pmf(99));
}

// Property sweep: head mass grows with skew for several universe sizes.
class ZipfSkewSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZipfSkewSweep, HeadMassMonotoneInSkew) {
  const std::size_t n = GetParam();
  double previous_head = -1.0;
  for (double skew : {0.0, 0.4, 0.8, 1.2, 1.6, 2.0}) {
    Zipf z{n, skew};
    const double head = z.pmf(0);
    EXPECT_GT(head, previous_head) << "n=" << n << " skew=" << skew;
    previous_head = head;
  }
}

INSTANTIATE_TEST_SUITE_P(UniverseSizes, ZipfSkewSweep,
                         ::testing::Values(2, 5, 10, 100, 1000));

}  // namespace
}  // namespace cake::util
