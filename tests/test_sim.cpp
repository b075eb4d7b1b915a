// Unit tests for the discrete-event scheduler and the counted network.
#include "cake/sim/sim.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <tuple>

#include "cake/sim/chaos.hpp"
#include "cake/util/rng.hpp"

namespace cake::sim {
namespace {

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, TiesRunInPostOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) s.schedule_at(10, [&, i] { order.push_back(i); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run();
  bool ran = false;
  s.schedule_at(5, [&] { ran = true; });  // in the past
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 100u);  // time never goes backwards
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  Time fired_at = 0;
  s.schedule_at(50, [&] {
    s.schedule_after(25, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, 75u);
}

TEST(Scheduler, ClosuresMayScheduleMoreWork) {
  Scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) s.schedule_after(1, tick);
  };
  s.schedule_at(0, tick);
  EXPECT_EQ(s.run(), 10u);
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  EXPECT_TRUE(s.empty());
  s.schedule_at(1, [] {});
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, MaxStepsBoundsExecution) {
  Scheduler s;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [] {});
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  for (Time t : {10u, 20u, 30u, 40u}) s.schedule_at(t, [&, t] { fired.push_back(t); });
  s.run_until(30);
  // Closed on the right: work scheduled exactly at the deadline runs too.
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(s.now(), 30u);
  s.run();
  EXPECT_EQ(fired.size(), 4u);
}

// Pins the boundary contract: [.., deadline] is *inclusive*. The chaos
// controller schedules heals and restarts at exact TTL multiples, and
// run_until(heal_time) must execute them rather than strand them one step
// into the future.
TEST(Scheduler, RunUntilBoundaryIsInclusive) {
  Scheduler s;
  Time ran_at = 0;
  s.schedule_at(100, [&] { ran_at = s.now(); });
  s.run_until(100);
  EXPECT_EQ(ran_at, 100u);  // executed, with now() == deadline inside
  EXPECT_EQ(s.now(), 100u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunUntilDrainsCascadesAtTheDeadline) {
  Scheduler s;
  int depth = 0;
  // Work spawned *at* the deadline with zero delay still belongs to the
  // closed interval and must run before run_until returns.
  std::function<void()> chain = [&] {
    if (++depth < 3) s.schedule_after(0, chain);
  };
  s.schedule_at(50, chain);
  s.run_until(50);
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(s.now(), 50u);
}

TEST(Scheduler, RunUntilIsIdempotentAtTheDeadline) {
  Scheduler s;
  int runs = 0;
  s.schedule_at(80, [&] { ++runs; });
  s.run_until(80);
  s.run_until(80);  // nothing left at or before the deadline
  EXPECT_EQ(runs, 1);
  s.schedule_background_at(81, [&] { ++runs; });
  s.run_until(80);  // strictly-later work stays pending
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(s.pending(), 1u);
}

// The order oracle for Scheduler: one binary heap keyed on (time, post
// sequence), the textbook discrete-event queue. It has the same interface,
// so the one `drive` template below runs both.
class HeapScheduler {
public:
  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t pending_foreground() const noexcept {
    return foreground_;
  }
  void schedule_at(Time at, std::function<void()> fn) {
    push(at, std::move(fn), false);
  }
  void schedule_after(Time delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  void schedule_background_at(Time at, std::function<void()> fn) {
    push(at, std::move(fn), true);
  }
  void schedule_background_after(Time delay, std::function<void()> fn) {
    schedule_background_at(now_ + delay, std::move(fn));
  }
  bool step() {
    if (queue_.empty()) return false;
    Item item = queue_.top();
    queue_.pop();
    if (!item.background) --foreground_;
    now_ = item.at;
    item.fn();
    return true;
  }
  std::size_t run(std::size_t max_steps) {
    std::size_t steps = 0;
    while (steps < max_steps && foreground_ > 0 && step()) ++steps;
    return steps;
  }
  void run_until(Time deadline) {
    while (!queue_.empty() && queue_.top().at <= deadline) step();
    now_ = std::max(now_, deadline);
  }

private:
  struct Item {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool background;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  void push(Time at, std::function<void()> fn, bool background) {
    queue_.push(Item{std::max(at, now_), seq_++, std::move(fn), background});
    if (!background) ++foreground_;
  }

  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t foreground_ = 0;
};

// Drives a scheduler through a seeded random program — foreground and
// background posts, absolute, relative and past (clamped) times, closures
// that post more work at their own instant, interleaved with step(),
// run(max_steps) and run_until() — and logs every observable: which closure
// ran at what time, each call's result, the clock and the pending counts.
template <class S>
std::vector<std::uint64_t> drive(std::uint64_t seed) {
  S s;
  util::Rng rng{seed};
  std::vector<std::uint64_t> log;
  std::uint64_t next_id = 0;
  std::function<void(int)> post = [&](int depth) {
    const std::uint64_t id = next_id++;
    std::function<void()> fn = [&, id, depth] {
      log.push_back(id);
      log.push_back(s.now());
      if (depth < 3)
        for (auto n = rng.below(3); n > 0; --n) post(depth + 1);
    };
    const Time now = s.now();
    switch (rng.below(6)) {
      case 0: s.schedule_at(now + 10 * rng.below(4), std::move(fn)); break;
      case 1: s.schedule_at(now > 25 ? now - 25 : 0, std::move(fn)); break;
      case 2: s.schedule_after(rng.below(3), std::move(fn)); break;
      case 3:
        s.schedule_background_at(now + 10 * rng.below(4), std::move(fn));
        break;
      case 4: s.schedule_background_after(rng.below(2), std::move(fn)); break;
      default: s.schedule_after(rng.below(100), std::move(fn)); break;
    }
  };
  for (int round = 0; round < 300; ++round) {
    for (auto n = rng.below(4); n > 0; --n) post(0);
    switch (rng.below(4)) {
      case 0: log.push_back(s.step() ? 1 : 0); break;
      case 1: log.push_back(s.run(rng.below(8))); break;
      case 2: s.run_until(s.now() + rng.below(40)); break;
      default: log.push_back(s.run(std::numeric_limits<std::size_t>::max())); break;
    }
    log.push_back(s.now());
    log.push_back(s.pending());
    log.push_back(s.pending_foreground());
  }
  s.run_until(s.now() + 1'000);  // posts are depth-bounded: this drains all
  log.push_back(s.now());
  log.push_back(s.pending());
  return log;
}

TEST(Scheduler, MatchesTheTimeSeqHeapOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto fifo = drive<Scheduler>(seed);
    const auto heap = drive<HeapScheduler>(seed);
    ASSERT_GT(heap.size(), 1'000u);
    ASSERT_EQ(fifo, heap) << "seed " << seed;
  }
}

TEST(Network, DeliversWithDefaultLatency) {
  Scheduler sched;
  Network net{sched, 500};
  Time delivered_at = 0;
  NodeId from_seen = kNoNode;
  net.attach(2, [&](NodeId from, const Network::Payload&) {
    delivered_at = sched.now();
    from_seen = from;
  });
  net.send(1, 2, {std::byte{0xab}});
  sched.run();
  EXPECT_EQ(delivered_at, 500u);
  EXPECT_EQ(from_seen, 1u);
}

TEST(Network, PerLinkLatencyOverride) {
  Scheduler sched;
  Network net{sched, 500};
  net.set_latency(1, 2, 50);
  Time delivered_at = 0;
  net.attach(2, [&](NodeId, const Network::Payload&) { delivered_at = sched.now(); });
  net.send(1, 2, {});
  sched.run();
  EXPECT_EQ(delivered_at, 50u);
}

TEST(Network, CountsMessagesAndBytes) {
  Scheduler sched;
  Network net{sched};
  net.attach(2, [](NodeId, const Network::Payload&) {});
  net.send(1, 2, Network::Payload(std::vector<std::byte>(10)));
  net.send(1, 2, Network::Payload(std::vector<std::byte>(5)));
  net.send(2, 1, Network::Payload(std::vector<std::byte>(7)));
  EXPECT_EQ(net.total_messages(), 3u);
  EXPECT_EQ(net.total_bytes(), 22u);
  EXPECT_EQ(net.link(1, 2).messages, 2u);
  EXPECT_EQ(net.link(1, 2).bytes, 15u);
  EXPECT_EQ(net.link(2, 1).messages, 1u);
  EXPECT_EQ(net.link(9, 9).messages, 0u);
}

TEST(Network, ReceivedByCountsDeliveries) {
  Scheduler sched;
  Network net{sched};
  net.attach(2, [](NodeId, const Network::Payload&) {});
  net.send(1, 2, {});
  net.send(1, 2, {});
  net.send(1, 3, {});  // node 3 is detached: counted as sent, not received
  sched.run();
  EXPECT_EQ(net.received_by(2), 2u);
  EXPECT_EQ(net.received_by(3), 0u);
  EXPECT_EQ(net.total_messages(), 3u);
}

TEST(Network, DetachedPeerDropsSilently) {
  Scheduler sched;
  Network net{sched};
  net.send(1, 99, Network::Payload(std::vector<std::byte>(4)));
  EXPECT_NO_THROW(sched.run());
}

TEST(Network, PayloadContentArrivesIntact) {
  Scheduler sched;
  Network net{sched};
  Network::Payload received;
  net.attach(5, [&](NodeId, const Network::Payload& p) { received = p; });
  const Network::Payload sent{std::byte{1}, std::byte{2}, std::byte{3}};
  net.send(4, 5, sent);
  sched.run();
  EXPECT_EQ(received, sent);
}

TEST(Network, HandlerMaySendMore) {
  Scheduler sched;
  Network net{sched, 10};
  int hops = 0;
  net.attach(1, [&](NodeId, const Network::Payload& p) {
    if (++hops < 5) net.send(1, 2, p);
  });
  net.attach(2, [&](NodeId, const Network::Payload& p) { net.send(2, 1, p); });
  net.send(0, 1, {});
  sched.run();
  EXPECT_EQ(hops, 5);
  EXPECT_EQ(sched.now(), 10u * 9);  // 0→1, then 4 round trips of 2 hops
}

// ---- fault interception ----------------------------------------------------

TEST(Network, InterceptorDropsCountIntoDropped) {
  Scheduler sched;
  Network net{sched};
  std::uint64_t seen = 0;
  net.attach(2, [&](NodeId, const Network::Payload&) { ++seen; });
  net.set_interceptor([](NodeId, NodeId, const Network::Payload&) {
    return Network::FaultAction{.copies = 0, .extra_latency = 0};
  });
  for (int i = 0; i < 7; ++i) net.send(1, 2, Network::Payload(std::vector<std::byte>(1)));
  sched.run();
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(net.dropped(), 7u);
  EXPECT_EQ(net.delivered(), 0u);
  EXPECT_EQ(net.total_messages(), 7u);
}

TEST(Network, InterceptorDuplicatesDeliverEveryCopy) {
  Scheduler sched;
  Network net{sched};
  std::uint64_t seen = 0;
  net.attach(2, [&](NodeId, const Network::Payload&) { ++seen; });
  net.set_interceptor([](NodeId, NodeId, const Network::Payload&) {
    return Network::FaultAction{.copies = 3, .extra_latency = 0};
  });
  for (int i = 0; i < 5; ++i) net.send(1, 2, Network::Payload(std::vector<std::byte>(1)));
  sched.run();
  EXPECT_EQ(seen, 15u);
  EXPECT_EQ(net.duplicated(), 10u);  // two extra copies per send
  EXPECT_EQ(net.delivered(), 15u);
  EXPECT_EQ(net.total_messages(), 5u);
}

TEST(Network, InterceptorJitterReordersDeliveries) {
  Scheduler sched;
  Network net{sched, 100};
  std::vector<int> order;
  net.attach(2, [&](NodeId, const Network::Payload& p) {
    order.push_back(static_cast<int>(p[0]));
  });
  // First message gets a large extra delay; the second overtakes it.
  bool first = true;
  net.set_interceptor([&first](NodeId, NodeId, const Network::Payload&) {
    const Time extra = first ? 1000 : 0;
    first = false;
    return Network::FaultAction{.copies = 1, .extra_latency = extra};
  });
  net.send(1, 2, {std::byte{1}});
  net.send(1, 2, {std::byte{2}});
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(net.delivered(), 2u);
}

TEST(Network, InterceptorClearsWithEmptyFunction) {
  Scheduler sched;
  Network net{sched};
  std::uint64_t seen = 0;
  net.attach(2, [&](NodeId, const Network::Payload&) { ++seen; });
  net.set_interceptor([](NodeId, NodeId, const Network::Payload&) {
    return Network::FaultAction{.copies = 0, .extra_latency = 0};
  });
  net.send(1, 2, Network::Payload(std::vector<std::byte>(1)));
  net.set_interceptor({});
  net.send(1, 2, Network::Payload(std::vector<std::byte>(1)));
  sched.run();
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(net.dropped(), 1u);
}

// ---- loss-rate determinism and conservation --------------------------------

namespace {

/// Sends 2×`batch` one-byte messages 1→2, switching the loss process on
/// mid-run, and returns the delivered payload sequence.
std::vector<int> lossy_run(double rate, std::uint64_t seed, int batch) {
  Scheduler sched;
  Network net{sched, 10};
  std::vector<int> delivered;
  net.attach(2, [&](NodeId, const Network::Payload& p) {
    delivered.push_back(static_cast<int>(p[0]));
  });
  for (int i = 0; i < batch; ++i)
    net.send(1, 2, {static_cast<std::byte>(i)});
  sched.run();
  net.set_loss_rate(rate, seed);  // mid-run: earlier traffic was clean
  for (int i = batch; i < 2 * batch; ++i)
    net.send(1, 2, {static_cast<std::byte>(i)});
  sched.run();
  EXPECT_EQ(net.delivered() + net.dropped(), net.total_messages());
  return delivered;
}

}  // namespace

TEST(Network, MidRunLossRateIsDeterministicPerSeed) {
  const std::vector<int> a = lossy_run(0.4, 99, 50);
  const std::vector<int> b = lossy_run(0.4, 99, 50);
  EXPECT_EQ(a, b) << "same seed must drop the same messages";
  EXPECT_LT(a.size(), 100u) << "a 40% loss process dropped nothing";
  EXPECT_GE(a.size(), 50u) << "pre-fault traffic must never be dropped";

  // Some other seed must make a different choice somewhere (50 coin flips).
  bool any_differ = false;
  for (std::uint64_t seed = 100; seed < 105 && !any_differ; ++seed)
    any_differ = lossy_run(0.4, seed, 50) != a;
  EXPECT_TRUE(any_differ);
}

// Conservation under arbitrary chaos schedules: whatever a random fault
// plan does — drops, partitions, duplication, jitter — after a full drain
//   total + duplicated == delivered + dropped + undeliverable
// and every chaos schedule replays identically for its seed.
TEST(Network, AccountingIdentityHoldsUnderRandomChaosSchedules) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RandomPlanSpec spec;
    spec.horizon = 100'000;
    spec.ops = 5;
    spec.max_node = 4;  // nodes 0..4, node 4 left unattached
    const FaultPlan plan = random_plan(seed, spec);

    const auto run_once = [&plan] {
      Scheduler sched;
      Network net{sched, 10};
      net.set_loss_rate(0.1, plan.seed);  // uniform loss on top of chaos
      for (NodeId n = 0; n < 4; ++n)
        net.attach(n, [](NodeId, const Network::Payload&) {});
      Chaos chaos{sched, net, plan};
      chaos.arm();
      for (int i = 0; i < 400; ++i) {
        const Time at = static_cast<Time>(i) * 250;
        sched.schedule_at(at, [&net, i] {
          net.send(static_cast<NodeId>(i % 4), static_cast<NodeId>((i + 1) % 5),
                   Network::Payload(std::vector<std::byte>(3)));
        });
      }
      sched.run();
      EXPECT_EQ(net.total_messages() + net.duplicated(),
                net.delivered() + net.dropped() + net.undeliverable())
          << "conservation violated for " << plan.encode();
      return std::tuple{net.delivered(), net.dropped(), net.undeliverable(),
                        net.duplicated()};
    };
    EXPECT_EQ(run_once(), run_once())
        << "chaos schedule not deterministic: " << plan.encode();
  }
}

}  // namespace
}  // namespace cake::sim
