// Flooded-fabric stress (DESIGN.md §15): deliberately undersized lane
// queues under a self-amplifying cross-lane storm. The full-queue path has
// exactly one rule — a lane worker that finds its target queue full parks
// the frame in its own outbox and flushes it before its next pop, so it
// never waits and never runs a handler inside another — and these tests
// force that path hot: two lanes ping-pong an exponentially amplified
// relay storm through queues of 8 (and of 2) slots, and every message must
// still be delivered exactly once (the fabric defers, it never drops).
// Outside threads that find a queue full just wait; they get the same
// exactly-once, in-order guarantee.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend_fixture.hpp"
#include "cake/runtime/threaded.hpp"
#include "cake/sim/sim.hpp"

namespace cake::transport_tests {
namespace {

/// Two relay nodes, 0 on lane 0 and 1 on lane 1, on a 2-worker transport
/// whose lane queues hold `capacity` tasks. Each delivery re-sends to the
/// opposite node twice while the relay budget lasts: the storm grows 2x
/// per hop, so both queues saturate from *inside* the workers — the shape
/// that deadlocks unless a worker can set a frame aside without waiting.
/// Every relay also tracks how deeply handlers nest on its thread.
struct RelayStorm {
  static constexpr std::uint64_t kSeeds = 64;

  RelayStorm(std::size_t capacity, std::int64_t relays)
      : transport{runtime::ThreadedOptions{.queue_capacity = capacity,
                                           .batch = 4}},
        relays{relays} {
    network.bind_lanes(transport);
    for (sim::NodeId self = 0; self < 2; ++self)
      network.attach(self, [this, self](sim::NodeId,
                                        const sim::Network::Payload& p) {
        thread_local int depth = 0;
        ++depth;
        int seen = max_depth.load();
        while (depth > seen && !max_depth.compare_exchange_weak(seen, depth)) {
        }
        for (int copy = 0; copy < 2; ++copy)
          if (budget.fetch_sub(1, std::memory_order_acq_rel) > 0)
            network.send(self, self == 0 ? 1 : 0, p);
        --depth;
      });
  }

  void run() {
    const wire::Frame frame{std::byte{0x5A}};
    for (std::uint64_t i = 0; i < kSeeds; ++i)
      network.send(2, i % 2, frame);  // main-thread seeds, both lanes
    transport.drain();
  }

  EnvGuard guard{"CAKE_THREADS", "2"};
  runtime::ThreadedTransport transport;
  sim::Scheduler scheduler;  // fabric mode never runs it; Network wants one
  sim::Network network{scheduler, 10};
  std::int64_t relays;
  std::atomic<std::int64_t> budget{relays};
  std::atomic<int> max_depth{0};
};

TEST(FabricFlood, FullQueuesDeferToOutboxesAndLoseNothing) {
  RelayStorm storm{8, 20'000};
  ASSERT_EQ(storm.transport.workers(), 2u);
  storm.run();

  // Conservation: every seed and every budgeted relay was delivered
  // exactly once — the flood shed nothing, duplicated nothing.
  EXPECT_EQ(storm.network.delivered(), RelayStorm::kSeeds + storm.relays);
  EXPECT_EQ(storm.network.undeliverable(), 0u);
  // The storm actually exercised the full-queue path, not just grazed it.
  EXPECT_GT(storm.network.help_drained(), 0u);
  EXPECT_EQ(storm.network.help_drained(), storm.transport.stats().deferred);
}

// A handler runs to completion before its lane runs anything else: through
// two-slot queues the storm is full-queue almost every send, and its last
// generations hold tens of thousands of frames in flight, yet no relay
// ever starts while another runs on the same thread.
TEST(FabricFlood, TwoSlotQueuesNeverRunAHandlerInsideAnother) {
  RelayStorm storm{2, 200'000};
  ASSERT_EQ(storm.transport.workers(), 2u);
  storm.run();
  EXPECT_EQ(storm.max_depth.load(), 1);
  EXPECT_EQ(storm.network.delivered(), RelayStorm::kSeeds + storm.relays);
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
  network.bind_lanes(transport);  // node n on lane n % 2

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

// Several outside threads (not lane workers) feed one fabric at once
// through lane queues of 8 slots drained 4 at a time. Each frame carries a
// unique (sender, receiver, sequence) tag, and each receiver records what
// it sees; the receivers run on their own lanes, so each record is
// written by one thread only.
class OutsideSenders {
public:
  static constexpr int kSenders = 4;
  static constexpr int kReceivers = 4;
  static constexpr int kPerPair = 500;
  static constexpr std::uint64_t kTotal =
      std::uint64_t{kSenders} * kReceivers * kPerPair;

  struct Tag {
    int sender = 0;
    int sequence = 0;
  };

  static sim::NodeId sender_id(int sender) {
    return static_cast<sim::NodeId>(100 + sender);
  }

  OutsideSenders() {
    network_.bind_lanes(transport_);  // node n on lane n % 2
    for (int r = 0; r < kReceivers; ++r)
      network_.attach(static_cast<sim::NodeId>(r),
                      [this, r](sim::NodeId, const sim::Network::Payload& p) {
                        seen_[r].push_back(
                            Tag{std::to_integer<int>(p[0]),
                                (std::to_integer<int>(p[2]) << 8) |
                                    std::to_integer<int>(p[3])});
                      });
  }

  /// Sends every frame from kSenders threads at once, then waits for the
  /// fabric to go quiet.
  void run() {
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s)
      senders.emplace_back([this, s] {
        const sim::NodeId from = sender_id(s);
        for (int i = 0; i < kPerPair; ++i)
          for (int r = 0; r < kReceivers; ++r)
            network_.send(from, static_cast<sim::NodeId>(r),
                          wire::Frame{std::byte(s), std::byte(r),
                                      std::byte(i >> 8), std::byte(i & 0xFF)});
      });
    for (auto& t : senders) t.join();
    transport_.drain();
  }

  [[nodiscard]] const std::vector<Tag>& seen(int receiver) const {
    return seen_[receiver];
  }
  [[nodiscard]] sim::Network& network() { return network_; }

private:
  EnvGuard guard_{"CAKE_THREADS", "2"};
  runtime::ThreadedTransport transport_{
      runtime::ThreadedOptions{.queue_capacity = 8, .batch = 4}};
  sim::Scheduler scheduler_;  // fabric mode never runs it; Network wants one
  sim::Network network_{scheduler_, 10};
  std::vector<Tag> seen_[kReceivers];
};

TEST(FabricFlood, OutsideSendersThroughSmallRingsDeliverEveryFrameOnce) {
  using F = OutsideSenders;
  F fabric;
  fabric.run();

  std::uint64_t seen = 0;
  for (int r = 0; r < F::kReceivers; ++r) {
    std::vector<int> copies(F::kSenders * F::kPerPair);
    for (const F::Tag& tag : fabric.seen(r))
      ++copies.at(tag.sender * F::kPerPair + tag.sequence);
    for (std::size_t i = 0; i < copies.size(); ++i)
      ASSERT_EQ(copies[i], 1) << "receiver " << r << ", frame " << i;
    seen += fabric.seen(r).size();
  }
  EXPECT_EQ(seen, F::kTotal);
  EXPECT_EQ(fabric.network().total_messages(), F::kTotal);
  EXPECT_EQ(fabric.network().delivered(), fabric.network().total_messages());
  EXPECT_EQ(fabric.network().undeliverable(), 0u);
  // The outside senders share one accounting slot; none of their sends
  // may go uncounted.
  for (int s = 0; s < F::kSenders; ++s)
    for (int r = 0; r < F::kReceivers; ++r)
      EXPECT_EQ(fabric.network()
                    .link(F::sender_id(s), static_cast<sim::NodeId>(r))
                    .messages,
                std::uint64_t{F::kPerPair});
}

TEST(FabricFlood, OutsideSendersFramesReachEachReceiverInSendOrder) {
  using F = OutsideSenders;
  F fabric;
  fabric.run();

  for (int r = 0; r < F::kReceivers; ++r) {
    std::vector<int> next(F::kSenders, 0);
    for (const F::Tag& tag : fabric.seen(r))
      ASSERT_EQ(tag.sequence, next.at(tag.sender)++)
          << "receiver " << r << ", sender " << tag.sender;
    for (int s = 0; s < F::kSenders; ++s) EXPECT_EQ(next[s], F::kPerPair);
  }
}

}  // namespace
}  // namespace cake::transport_tests
