// Flooded-fabric stress (DESIGN.md §15): deliberately undersized LaneInbox
// rings under a self-amplifying cross-lane storm. The full-ring path has
// exactly one escape hatch — a blocked lane worker help-drains its *own*
// inbox while it waits for room in the destination's — and this test forces
// that path hot: two lanes ping-pong an exponentially amplified relay storm
// through rings of 8 slots, and every message must still be delivered
// exactly once (the fabric blocks, it never drops).
#include <atomic>
#include <cstdint>

#include <gtest/gtest.h>

#include "backend_fixture.hpp"
#include "cake/runtime/threaded.hpp"
#include "cake/sim/sim.hpp"

namespace cake::transport_tests {
namespace {

TEST(FabricFlood, FullRingsForceHelpDrainingAndLoseNothing) {
  EnvGuard guard{"CAKE_THREADS", "2"};
  runtime::ThreadedTransport transport{};
  ASSERT_EQ(transport.workers(), 2u);
  sim::Scheduler scheduler;  // fabric mode never runs it; Network wants one
  sim::Network network{scheduler, 10};
  // Rings of 8 slots against a storm thousands deep: pushes must block on
  // full rings constantly, and blocked workers must help-drain to make
  // progress instead of deadlocking on each other.
  network.bind_lanes(
      transport,
      [](sim::NodeId node) { return static_cast<std::size_t>(node) % 2; },
      /*batch=*/4, /*inbox_capacity=*/8);

  // Node 0 lives on lane 0, node 1 on lane 1. Each delivery re-sends to
  // the opposite node twice while the relay budget lasts: the storm grows
  // 2x per hop, so both rings saturate from *inside* the workers — the
  // exact shape that deadlocks without the help-drain escape.
  constexpr std::int64_t kRelays = 20'000;
  constexpr std::uint64_t kSeeds = 64;
  std::atomic<std::int64_t> budget{kRelays};
  const wire::Frame frame{std::byte{0x5A}};
  const auto relay = [&](sim::NodeId self) {
    return [&network, &budget, self](sim::NodeId,
                                     const sim::Network::Payload& p) {
      for (int copy = 0; copy < 2; ++copy)
        if (budget.fetch_sub(1, std::memory_order_acq_rel) > 0)
          network.send(self, self == 0 ? 1 : 0, p);
    };
  };
  network.attach(0, relay(0));
  network.attach(1, relay(1));

  for (std::uint64_t i = 0; i < kSeeds; ++i)
    network.send(2, i % 2, frame);  // main-thread seeds, both lanes
  transport.drain();

  // Conservation: every seed and every budgeted relay was delivered
  // exactly once — the flood shed nothing, duplicated nothing.
  EXPECT_EQ(network.delivered(), kSeeds + kRelays);
  EXPECT_EQ(network.undeliverable(), 0u);
  // The storm actually exercised the full-ring path, not just grazed it.
  EXPECT_GT(network.help_drained(), 0u);
}

// Nodes join a fabric that already carries traffic (Overlay::add_subscriber
// on a running Threaded overlay): attach runs on one thread while lane
// workers look handlers up and run them. The table must never move a slot
// or a handler a lane can see — thousands of new ids force fresh table
// chunks mid-storm, and re-attaching the two busy relays replaces handlers
// that are running at that moment. TSan-clean, and nothing is lost.
TEST(FabricFlood, AttachWhileLanesDeliverMovesNothingALaneReads) {
  EnvGuard guard{"CAKE_THREADS", "2"};
  runtime::ThreadedTransport transport{};
  ASSERT_EQ(transport.workers(), 2u);
  sim::Scheduler scheduler;
  sim::Network network{scheduler, 10};
  network.bind_lanes(transport, [](sim::NodeId node) {
    return static_cast<std::size_t>(node) % 2;
  });

  constexpr std::int64_t kRelays = 50'000;
  constexpr std::uint64_t kSeeds = 8;
  std::atomic<std::int64_t> budget{kRelays};
  const wire::Frame frame{std::byte{0x5A}};
  const auto relay = [&](sim::NodeId self) {
    return [&network, &budget, self](sim::NodeId,
                                     const sim::Network::Payload& p) {
      if (budget.fetch_sub(1, std::memory_order_acq_rel) > 0)
        network.send(self, self == 0 ? 1 : 0, p);
    };
  };
  network.attach(0, relay(0));
  network.attach(1, relay(1));
  for (std::uint64_t i = 0; i < kSeeds; ++i) network.send(2, i % 2, frame);

  constexpr sim::NodeId kJoiners = 5000;
  for (sim::NodeId node = 2; node < 2 + kJoiners; ++node) {
    network.attach(node, [](sim::NodeId, const sim::Network::Payload&) {});
    if (node % 1000 == 0) {
      network.attach(0, relay(0));
      network.attach(1, relay(1));
    }
  }
  transport.drain();

  EXPECT_EQ(network.delivered(), kSeeds + kRelays);
  EXPECT_EQ(network.undeliverable(), 0u);
  for (sim::NodeId node = 0; node < 2 + kJoiners; ++node)
    EXPECT_TRUE(network.attached(node)) << node;
}

}  // namespace
}  // namespace cake::transport_tests
