// Lane safety of Op::Regex (DESIGN.md §9). On the Threaded backend every
// lane's exact stage and broker index evaluate `applies(Op::Regex, …)`, so
// several lanes meet a pattern for the first time at once: each compiles
// it into its own per-thread cache and matches on its own scratch.
#include <atomic>
#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cake/filter/op.hpp"

namespace cake::transport_tests {
namespace {

using filter::Op;
using value::Value;

TEST(RegexLanes, FourLanesMeetTheSameNewPatternsAtOnce) {
  constexpr std::size_t kLanes = 4;
  constexpr int kRounds = 200;
  std::barrier sync{static_cast<std::ptrdiff_t>(kLanes)};
  std::atomic<int> wrong{0};
  std::vector<std::thread> lanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        // A pattern no lane has seen before this round.
        const std::string n = std::to_string(round);
        const Value pattern{"(PODC|SOSP)-" + n + "-[a-c]+x*"};
        sync.arrive_and_wait();
        for (int rep = 0; rep < 4; ++rep) {
          if (!filter::applies(Op::Regex, Value{"PODC-" + n + "-abcxx"}, pattern))
            ++wrong;
          if (!filter::applies(Op::Regex, Value{"SOSP-" + n + "-c"}, pattern))
            ++wrong;
          if (filter::applies(Op::Regex, Value{"ICDCS-" + n + "-a"}, pattern))
            ++wrong;
          if (filter::applies(Op::Regex, Value{"PODC-" + n + "-"}, pattern))
            ++wrong;
        }
      }
    });
  }
  for (auto& t : lanes) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace cake::transport_tests
