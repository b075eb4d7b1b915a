// Overload-control integration units (DESIGN.md §15): the subscriber's
// stalled-consumer inbox and the broker's slow-child quarantine, each
// asserted against the conservation identity the chaos harness gates on —
// every event is delivered, parked, or counted as an accounted eviction;
// nothing silently vanishes and the control plane never starves.
#include <gtest/gtest.h>

#include <cstdint>

#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::FilterBuilder;
using routing::Overlay;
using routing::OverlayConfig;

OverlayConfig overload_config() {
  OverlayConfig config;
  config.stage_counts = {1};
  config.link.reliability = link::Reliability::Reliable;
  config.link.credit = true;
  return config;
}

struct Fixture {
  explicit Fixture(const OverlayConfig& config) : overlay(config) {
    workload::ensure_types_registered();
    publisher = &overlay.add_publisher();
    publisher->advertise(workload::BiblioGenerator::schema());
    overlay.run();
  }

  /// Publishes `n` events in one burst at the current virtual instant.
  void publish_burst(std::size_t n) {
    workload::BiblioGenerator gen{{}, 7};
    for (std::size_t i = 0; i < n; ++i) publisher->publish(gen.next_event());
  }

  /// Publishes `n` events spaced `gap` µs apart — a sustained rate a
  /// healthy consumer keeps up with, not an instantaneous wall.
  void publish_paced(std::size_t n, sim::Time gap) {
    workload::BiblioGenerator gen{{}, 7};
    for (std::size_t i = 0; i < n; ++i) {
      publisher->publish(gen.next_event());
      overlay.scheduler().run_until(overlay.scheduler().now() + gap);
    }
  }

  Overlay overlay;
  routing::PublisherNode* publisher = nullptr;
};

TEST(Overload, StalledConsumerParksEventsAndReplaysOnRecovery) {
  Fixture fx{overload_config()};
  std::uint64_t received = 0;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&received](const EventImage&) { ++received; });
  fx.overlay.run();

  sub.stall();
  fx.publish_burst(10);
  fx.overlay.run();

  // The process is up — frames arrive (the initial credit budget covers
  // the burst) and park — but the handler is silent.
  EXPECT_EQ(received, 0u);
  EXPECT_TRUE(sub.stalled());
  EXPECT_EQ(sub.stats().events_stalled, 10u);
  EXPECT_EQ(sub.stats().stall_inbox_dropped, 0u);

  // Recovery replays the parked inbox in arrival order, exactly once.
  sub.unstall();
  fx.overlay.run();
  EXPECT_EQ(received, 10u);
  EXPECT_EQ(sub.stats().events_received, 10u);
}

TEST(Overload, StallInboxBoundEvictsOldestAndAccountsForIt) {
  OverlayConfig config = overload_config();
  config.subscriber.stall_inbox_limit = 4;
  Fixture fx{config};
  std::uint64_t received = 0;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&received](const EventImage&) { ++received; });
  fx.overlay.run();

  sub.stall();
  fx.publish_burst(10);
  fx.overlay.run();
  sub.unstall();
  fx.overlay.run();

  // Conservation: published == delivered + accounted stall-inbox evictions.
  EXPECT_EQ(received, 4u);
  EXPECT_EQ(sub.stats().stall_inbox_dropped, 6u);
  EXPECT_EQ(received + sub.stats().stall_inbox_dropped, 10u);
}

// A zero limit is an inbox that holds nothing: each frame that reaches the
// stalled consumer is dropped on arrival and counted.
TEST(Overload, ZeroStallInboxLimitHoldsNothingAndCountsEveryDrop) {
  OverlayConfig config = overload_config();
  config.subscriber.stall_inbox_limit = 0;
  Fixture fx{config};
  std::uint64_t received = 0;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&received](const EventImage&) { ++received; });
  fx.overlay.run();

  sub.stall();
  fx.publish_burst(10);
  fx.overlay.run();
  EXPECT_EQ(sub.parked(), 0u);
  EXPECT_EQ(sub.stats().events_stalled, 10u);
  EXPECT_EQ(sub.stats().stall_inbox_dropped, 10u);

  sub.unstall();
  fx.overlay.run();
  EXPECT_EQ(received, 0u);
}

// The shed ledger's parked row covers stalled consumers' inboxes too.
TEST(Overload, ShedLedgerCountsAStalledInboxAsParked) {
  Fixture fx{overload_config()};
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(), {});
  fx.overlay.run();

  sub.stall();
  fx.publish_burst(3);
  fx.overlay.run();
  metrics::ShedLedger ledger = metrics::shed_ledger(fx.overlay);
  EXPECT_EQ(ledger.parked, 3u);
  EXPECT_EQ(ledger.delivered, 0u);
  EXPECT_EQ(ledger.total_shed(), 0u);

  sub.unstall();
  fx.overlay.run();
  ledger = metrics::shed_ledger(fx.overlay);
  EXPECT_EQ(ledger.parked, 0u);
  EXPECT_EQ(ledger.delivered, 3u);
}

TEST(Overload, BrokerQuarantinesSlowChildAndDrainsPenOnRecovery) {
  OverlayConfig config = overload_config();
  config.link.credit_window = 4;  // tiny: a stalled child's queue builds fast
  config.broker.quarantine = true;
  config.broker.child_queue = {.low = 2, .high = 4, .capacity = 8};
  config.broker.quarantine_after = 50'000;
  config.broker.quarantine_drain_interval = 10'000;
  config.broker.quarantine_pen_limit = 64;
  Fixture fx{config};

  std::uint64_t slow_received = 0, healthy_received = 0;
  auto& slow = fx.overlay.add_subscriber();
  slow.subscribe(FilterBuilder{"Publication"}.build(),
                 [&slow_received](const EventImage&) { ++slow_received; });
  auto& healthy = fx.overlay.add_subscriber();
  healthy.subscribe(FilterBuilder{"Publication"}.build(),
                    [&healthy_received](const EventImage&) {
                      ++healthy_received;
                    });
  fx.overlay.run();

  // A sustained rate the healthy sibling absorbs in stride while the
  // stalled child's exhausted credit backs its queue up into quarantine.
  slow.stall();
  fx.publish_paced(40, 5'000);
  fx.overlay.run();

  routing::Broker& root = fx.overlay.root();
  EXPECT_EQ(healthy_received, 40u);
  EXPECT_FALSE(root.quarantined(healthy.id()));
  EXPECT_TRUE(root.quarantined(slow.id()));
  EXPECT_EQ(root.stats().children_quarantined, 1u);
  EXPECT_GT(root.stats().events_quarantined, 0u);
  EXPECT_GT(root.quarantine_pen_size(), 0u);
  EXPECT_EQ(root.stats().events_quarantine_dropped, 0u);

  // Recovery: credit resumes, the paced background drain empties the pen,
  // the quarantine lifts, and the child ends whole — nothing was lost.
  slow.unstall();
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 20'000'000);
  EXPECT_FALSE(root.quarantined(slow.id()));
  EXPECT_EQ(root.quarantine_pen_size(), 0u);
  EXPECT_EQ(slow_received, 40u);

  // The quarantine never touched the control plane: the lease survived, so
  // a post-recovery probe reaches both children.
  fx.publisher->publish(EventImage{
      "Publication",
      {{"year", value::Value{1995}},
       {"conference", value::Value{"conf-0"}},
       {"author", value::Value{"author-0"}},
       {"title", value::Value{"title-0-0-0-0"}}}});
  fx.overlay.run();
  EXPECT_EQ(slow_received, 41u);
  EXPECT_EQ(healthy_received, 41u);
}

TEST(Overload, QuarantinePenBoundEvictsOldestAndChargesTheChild) {
  OverlayConfig config = overload_config();
  config.link.credit_window = 4;
  config.broker.quarantine = true;
  config.broker.child_queue = {.low = 2, .high = 4, .capacity = 8};
  config.broker.quarantine_drain_interval = 10'000;
  config.broker.quarantine_pen_limit = 8;
  Fixture fx{config};

  std::uint64_t received = 0;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&received](const EventImage&) { ++received; });
  fx.overlay.run();

  // An instantaneous 40-event wall against one stalled child: the queue
  // hits capacity mid-burst, the pen opens undersized, and the overflow
  // must surface as accounted evictions — never as silent loss.
  sub.stall();
  fx.publish_burst(40);
  fx.overlay.run();
  routing::Broker& root = fx.overlay.root();
  ASSERT_TRUE(root.quarantined(sub.id()));
  EXPECT_GT(root.stats().events_quarantine_dropped, 0u);
  EXPECT_LE(root.quarantine_pen_size(), 8u);

  sub.unstall();
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 20'000'000);

  // Conservation with an undersized pen: every missing event is an
  // accounted eviction charged to exactly this child.
  EXPECT_EQ(root.quarantine_dropped(sub.id()),
            root.stats().events_quarantine_dropped);
  EXPECT_EQ(received + root.quarantine_dropped(sub.id()), 40u);
}

// A zero limit is a pen that holds nothing: each frame the quarantine
// diverts is dropped on arrival and charged to the child, and only the
// frames already on the link reach it.
TEST(Overload, ZeroQuarantinePenLimitHoldsNothingAndChargesEveryFrame) {
  OverlayConfig config = overload_config();
  config.link.credit_window = 4;
  config.broker.quarantine = true;
  config.broker.child_queue = {.low = 2, .high = 4, .capacity = 8};
  config.broker.quarantine_drain_interval = 10'000;
  config.broker.quarantine_pen_limit = 0;
  Fixture fx{config};

  std::uint64_t received = 0;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&received](const EventImage&) { ++received; });
  fx.overlay.run();

  sub.stall();
  fx.publish_burst(40);
  fx.overlay.run();
  routing::Broker& root = fx.overlay.root();
  ASSERT_TRUE(root.quarantined(sub.id()));
  EXPECT_EQ(root.quarantine_pen_size(), 0u);
  EXPECT_EQ(root.stats().events_quarantine_dropped,
            root.stats().events_quarantined);
  // The link keeps only its in-flight window; every other frame of the
  // burst went to the pen and was dropped there.
  EXPECT_EQ(root.quarantine_dropped(sub.id()), 37u);

  sub.unstall();
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 20'000'000);
  EXPECT_EQ(root.quarantine_dropped(sub.id()), 37u);
  EXPECT_EQ(received + root.quarantine_dropped(sub.id()), 40u);
}

// A crash and restart inside one drain period leave a single quarantine
// drain chain. The pre-crash tick is still pending after the restart; when
// it fires it must not disarm the chain a post-restart quarantine started,
// or the next quarantine arms a second chain and the drain runs twice as
// often. Observed as pending background work, which must equal that of a
// control arm that never crashed.
TEST(Overload, CrashRestartInsideOneDrainTickKeepsOneDrainChain) {
  constexpr sim::Time kDrain = 5'000'000;
  std::size_t pending[2] = {};
  for (const bool crash : {false, true}) {
    OverlayConfig config = overload_config();
    config.link.credit_window = 4;
    config.broker.quarantine = true;
    config.broker.child_queue = {.low = 2, .high = 4, .capacity = 8};
    config.broker.quarantine_drain_interval = kDrain;
    config.broker.ttl = 1'000'000;
    config.broker.renew_interval = 400'000;
    config.broker.reap_interval = 500'000;
    config.subscriber.renew_interval = 400'000;
    Fixture fx{config};
    sim::Scheduler& scheduler = fx.overlay.scheduler();
    auto& first = fx.overlay.add_subscriber();
    first.subscribe(FilterBuilder{"Publication"}.build(), {});
    auto& second = fx.overlay.add_subscriber();
    second.subscribe(FilterBuilder{"Publication"}.build(), {});
    fx.overlay.run();

    const sim::Time t0 = scheduler.now();
    first.stall();
    fx.publish_paced(20, 5'000);
    fx.overlay.run();
    ASSERT_TRUE(fx.overlay.root().quarantined(first.id()));
    if (crash) {
      fx.overlay.crash(0);
      fx.overlay.restart(0);
      // The subscribers' next renewals draw Expired and re-join them; then
      // the stalled one is quarantined afresh, before the pre-crash tick
      // fires.
      scheduler.run_until(t0 + kDrain / 2);
      fx.publish_paced(20, 5'000);
      fx.overlay.run();
      ASSERT_TRUE(fx.overlay.root().quarantined(first.id()));
    }
    // The pre-crash tick fires; then a second child is quarantined.
    scheduler.run_until(t0 + kDrain + kDrain / 5);
    second.stall();
    fx.publish_paced(20, 5'000);
    fx.overlay.run();
    ASSERT_TRUE(fx.overlay.root().quarantined(second.id()));
    scheduler.run_until(t0 + 3 * kDrain);
    pending[crash ? 1 : 0] = scheduler.pending();
  }
  EXPECT_EQ(pending[1], pending[0]);
}

}  // namespace
}  // namespace cake
