// Concurrent first decode of one event frame (DESIGN.md §9). On the
// Threaded backend a broker's fan-out hands one refcounted frame to
// receivers on several lanes at once: exactly one of them may fill the
// frame's memo, the others wait for it, and all of them read the same image.
#include <array>
#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cake/routing/protocol.hpp"

namespace cake::transport_tests {
namespace {

using event::EventImage;
using value::Value;

TEST(FrameMemoThreads, ConcurrentFirstDecodesShareOneImage) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kRounds = 1000;
  const EventImage image{"Publication",
                         {{"year", Value{2002}},
                          {"title", Value{std::string(40, 't')}},
                          {"score", Value{9.75}},
                          {"open", Value{true}}},
                         {std::byte{0x01}, std::byte{0x02}}};

  // The main thread mints a fresh frame per round (recycling the previous
  // round's node, memo included); the workers race to decode it.
  sim::Network::Payload frame;
  std::array<const routing::EventMsg*, kThreads> seen{};
  std::barrier sync{static_cast<std::ptrdiff_t>(kThreads + 1)};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();  // frame is ready
        {
          const sim::Network::Payload mine = frame;  // this receiver's ref
          seen[t] = &routing::decode_event_once(mine);
        }
        sync.arrive_and_wait();  // every decode is done
      }
    });
  }
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    frame = routing::encode_event_frame(image, round, round, 0);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    // EXPECT, not ASSERT: an early return would strand the workers.
    for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(seen[0]->event_id, round);
    EXPECT_EQ(seen[0]->image, image);
  }
  for (std::thread& worker : workers) worker.join();
}

}  // namespace
}  // namespace cake::transport_tests
