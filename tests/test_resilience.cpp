// Fault-injection and extension tests: soft-state recovery under message
// loss and crashes (§4.3's claim that TTL renewal "handles process failure
// and network partitions well"), durable subscriptions across
// disconnections (§2.1), composite subscriptions, malformed-frame
// tolerance and the §4.1 schema automation.
#include <gtest/gtest.h>

#include "cake/core/event_system.hpp"
#include "cake/metrics/metrics.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::FilterBuilder;
using filter::Op;
using routing::Overlay;
using routing::OverlayConfig;
using value::Value;

EventImage pub_event(int year, const std::string& conf,
                     const std::string& author, const std::string& title) {
  return EventImage{"Publication",
                    {{"year", Value{year}},
                     {"conference", Value{conf}},
                     {"author", Value{author}},
                     {"title", Value{title}}}};
}

OverlayConfig fast_ttl_config() {
  OverlayConfig config;
  config.stage_counts = {1, 2, 4};
  config.broker.ttl = 1'000'000;
  config.broker.renew_interval = 400'000;
  config.broker.reap_interval = 500'000;
  config.subscriber.renew_interval = 400'000;
  return config;
}

struct Fx {
  explicit Fx(OverlayConfig config = fast_ttl_config()) : overlay(config) {
    workload::ensure_types_registered();
    publisher = &overlay.add_publisher();
    publisher->advertise(workload::BiblioGenerator::schema());
    overlay.run();
  }
  Overlay overlay;
  routing::PublisherNode* publisher = nullptr;
};

// ---- crash cleanup ----------------------------------------------------------

TEST(Resilience, CrashedSubscriberStateReapedEverywhere) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                {});
  fx.overlay.run();

  // Hard crash: the process vanishes without unsubscribing.
  sub.halt();

  // Soft state: after 3×TTL every table in the overlay is clean again.
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 20'000'000);
  for (const auto& broker : fx.overlay.brokers())
    EXPECT_TRUE(broker->table().empty()) << "broker " << broker->id();
}

TEST(Resilience, CrashedLeafBrokerStateReapedUpstream) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                {});
  fx.overlay.run();
  // Crash the leaf broker hosting the subscription AND the subscriber (so
  // neither renews into the dead path).
  const auto home = sub.accepted_at(1);
  ASSERT_TRUE(home.has_value());
  fx.overlay.network().detach(*home);
  sub.halt();

  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 20'000'000);
  EXPECT_TRUE(fx.overlay.root().table().empty());
  for (routing::Broker* mid : fx.overlay.brokers_at(2))
    EXPECT_TRUE(mid->table().empty());
}

TEST(Resilience, ReparentHandoverCompletesWithNonEmptyFilterTable) {
  // Regression: the handover-done probe once ran right after renew_task had
  // put this tick's renewals on the wire toward the new parent, so with a
  // non-empty filter table the link never looked fully acked at probe time
  // — prev_parent_ never cleared and renewals streamed to the dead old
  // parent forever. The sequence-watermark condition must break the
  // make-before-break within a few renew intervals.
  OverlayConfig config = fast_ttl_config();
  config.stage_counts = {1, 1, 1};  // fixed chain: 0 (root) <- 1 <- 2
  config.link.reliability = link::Reliability::Reliable;
  // Random placement walks the chain to its only leaf; wildcard placement
  // would host this mostly-unconstrained filter at the root, and a root
  // never re-parents.
  config.broker.placement = routing::Placement::Random;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  fx.overlay.run();

  routing::Broker* leaf = fx.overlay.brokers()[2].get();
  ASSERT_FALSE(leaf->table().empty());  // the leaf hosts the subscription

  // Kill the leaf's parent; heartbeat detection (3 x 200k) plus a few renew
  // intervals (400k) fit comfortably in the 5M window.
  fx.overlay.crash(1);
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 5'000'000);

  EXPECT_GE(leaf->stats().reparents, 1u);
  EXPECT_EQ(leaf->parent(), 0u);  // re-attached to the grandparent (root)
  EXPECT_FALSE(leaf->handover_pending());

  // The healed path root -> leaf must carry events end-to-end.
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  fx.overlay.run();
  EXPECT_EQ(count, 1);
}

// ---- message loss -----------------------------------------------------------

TEST(Resilience, RenewalLossIsAbsorbedByRedundantRenewals) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  fx.overlay.run();

  // 30% uniform loss: renewals are periodic, so leases survive whp; the
  // Expired/rejoin path catches the rest.
  fx.overlay.network().set_loss_rate(0.3, 99);
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 30'000'000);
  fx.overlay.network().set_loss_rate(0.0);
  EXPECT_GT(fx.overlay.network().dropped(), 0u);

  // Give one renewal round a lossless window to re-establish anything the
  // loss tore down, then verify end-to-end delivery.
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 5'000'000);
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  fx.overlay.run();
  EXPECT_EQ(count, 1);
}

TEST(Resilience, ExpiredLeaseTriggersRejoin) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  fx.overlay.run();

  // Simulate a partition long enough for every lease to be reaped: 100%
  // loss for > 3×TTL. The subscriber keeps renewing into the void.
  fx.overlay.network().set_loss_rate(1.0, 7);
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 10'000'000);
  fx.overlay.network().set_loss_rate(0.0);
  bool any_table_left = false;
  for (const auto& broker : fx.overlay.brokers())
    any_table_left |= !broker->table().empty();
  EXPECT_FALSE(any_table_left);

  // Partition heals: the next renewal gets an Expired back and the
  // subscriber re-runs the join protocol on its own.
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 3'000'000);
  fx.overlay.run();
  EXPECT_GE(sub.stats().rejoins, 1u);

  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  fx.overlay.run();
  EXPECT_EQ(count, 1);
}

TEST(Resilience, StuckJoinRecoversViaRetry) {
  // Subscribe during a total blackout: every protocol message of the join
  // conversation is lost. The periodic retry must complete the join once
  // the network heals — without it the subscription would hang forever.
  Fx fx;
  fx.overlay.network().set_loss_rate(1.0, 5);
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  const auto token = sub.subscribe(FilterBuilder{"Publication"}
                                       .where("year", Op::Eq, Value{2002})
                                       .build(),
                                   [&](const EventImage&) { ++count; });
  fx.overlay.run();
  EXPECT_FALSE(sub.accepted_at(token).has_value());

  fx.overlay.network().set_loss_rate(0.0);
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 2'000'000);
  fx.overlay.run();
  ASSERT_TRUE(sub.accepted_at(token).has_value());

  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  fx.overlay.run();
  EXPECT_EQ(count, 1);
}

TEST(Resilience, DuplicateAcceptsNeverDoubleDeliver) {
  // Force the duplicate-join race: drop only the first AcceptedAt so the
  // retry lands at a (possibly different) leaf while the first lease is
  // still installed. Exactly one copy of each event must arrive.
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  // 60% loss during the join: some conversations need several retries and
  // stale leases from half-finished joins may linger.
  fx.overlay.network().set_loss_rate(0.6, 11);
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 5'000'000);
  fx.overlay.network().set_loss_rate(0.0);
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 3'000'000);
  fx.overlay.run();

  for (int i = 0; i < 20; ++i)
    fx.publisher->publish(pub_event(
        2002, "ICDCS", "Eugster", std::string{"t"}.append(std::to_string(i))));
  fx.overlay.run();
  EXPECT_EQ(count, 20);  // exactly once each, despite the racy joins
}

// ---- durable subscriptions ---------------------------------------------------

TEST(Durable, DetachBuffersAndResumeReplaysInOrder) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& e) {
                  titles.push_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  fx.overlay.run();

  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "before"));
  fx.overlay.run();

  sub.detach();
  fx.overlay.run();
  EXPECT_TRUE(sub.detached());

  for (const char* title : {"while-1", "while-2", "while-3"})
    fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", title));
  fx.publisher->publish(pub_event(1999, "X", "Y", "uninteresting"));
  fx.overlay.run();
  EXPECT_EQ(titles.size(), 1u);  // nothing delivered while detached

  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(titles, (std::vector<std::string>{"before", "while-1", "while-2",
                                              "while-3"}));

  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "after"));
  fx.overlay.run();
  EXPECT_EQ(titles.back(), "after");

  const auto home = sub.accepted_at(1);
  ASSERT_TRUE(home.has_value());
  for (const auto& broker : fx.overlay.brokers()) {
    if (broker->id() != *home) continue;
    EXPECT_EQ(broker->stats().events_buffered, 3u);
    EXPECT_EQ(broker->stats().events_replayed, 3u);
  }
}

TEST(Durable, DetachedLeaseSurvivesBeyondTtl) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& e) {
                  titles.push_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();

  // Way past 3×TTL: a non-durable lease would be reaped; the frozen
  // durable lease must survive and keep buffering.
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 30'000'000);
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "late"));
  fx.overlay.run();

  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(titles, std::vector<std::string>{"late"});
}

TEST(Durable, NonDurableDetachLosesEvents) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  fx.overlay.run();

  sub.detach();  // no durable lease: brokers ignore the Detach
  fx.overlay.network().detach(sub.id());
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "lost"));
  fx.overlay.run();

  fx.overlay.network().attach(sub.id(), [](sim::NodeId, const auto&) {});
  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(count, 0);  // the event is simply gone
}

TEST(Durable, BufferOverflowDropsOldest) {
  OverlayConfig config = fast_ttl_config();
  config.broker.durable_buffer_limit = 2;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& e) {
                  titles.push_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();

  for (const char* title : {"a", "b", "c", "d"})
    fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", title));
  fx.overlay.run();

  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(titles, (std::vector<std::string>{"c", "d"}));  // oldest dropped
}

// The shed ledger counts what a detached durable subscriber's buffer holds
// as parked, and what it evicted as shed.
TEST(Durable, ShedLedgerCountsBufferedFramesAsParked) {
  OverlayConfig config = fast_ttl_config();
  config.broker.durable_buffer_limit = 2;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}.build(), {}, {},
                /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();

  for (const char* title : {"a", "b", "c", "d"})
    fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", title));
  fx.overlay.run();
  const metrics::ShedLedger ledger = metrics::shed_ledger(fx.overlay);
  EXPECT_EQ(ledger.parked, 2u);
  EXPECT_EQ(ledger.buffer_overflows, 2u);
}

// A zero limit is a buffer that holds nothing: each event for the detached
// subscriber is dropped on arrival and counted, and resume replays none.
TEST(Durable, ZeroBufferLimitHoldsNothingAndCountsEveryDrop) {
  OverlayConfig config = fast_ttl_config();
  config.broker.durable_buffer_limit = 0;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}.build(),
                [&count](const EventImage&) { ++count; }, {},
                /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();

  for (const char* title : {"a", "b", "c", "d"})
    fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", title));
  fx.overlay.run();
  std::uint64_t buffered = 0, overflows = 0;
  std::size_t parked = 0;
  for (const auto& broker : fx.overlay.brokers()) {
    buffered += broker->stats().events_buffered;
    overflows += broker->stats().buffer_overflows;
    parked += broker->parked();
  }
  EXPECT_EQ(buffered, 4u);
  EXPECT_EQ(overflows, 4u);
  EXPECT_EQ(parked, 0u);

  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(count, 0);
}

// Without a journal the broker buffers a detached durable subscriber's
// events itself. The subscriber's event-id dedup is always on, so
// the replay must carry the publisher's frames — original event ids and
// publish stamps — or every buffered event after the first looks like a
// duplicate and the delivery latency is measured from time zero.
TEST(Durable, ReliableResumeWithoutJournalReplaysTheOriginalFrames) {
  OverlayConfig config = fast_ttl_config();
  config.link.reliability = link::Reliability::Reliable;
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& e) {
                  titles.push_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();
  ASSERT_TRUE(sub.detached());

  const sim::Time first_publish = fx.overlay.scheduler().now();
  for (const char* title : {"while-1", "while-2", "while-3"})
    fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", title));
  fx.overlay.run();
  EXPECT_TRUE(titles.empty());  // nothing delivered while detached

  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(titles,
            (std::vector<std::string>{"while-1", "while-2", "while-3"}));
  const sim::Time elapsed = fx.overlay.scheduler().now() - first_publish;
  EXPECT_LT(sub.delivery_latency().max(), static_cast<double>(elapsed));
}

// A detached subscriber with two durable subscriptions is one buffer target:
// an event matching both is held once and, on Resume, reaches each handler
// once — the same fan-out a live subscriber gets.
TEST(Durable, EventMatchingTwoDurableSubscriptionsIsBufferedOnce) {
  OverlayConfig config = fast_ttl_config();
  config.stage_counts = {1};  // single root: every lease lives there
  Fx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> by_year, by_conference;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& e) {
                  by_year.push_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("conference", Op::Eq, Value{"ICDCS"})
                    .build(),
                [&](const EventImage& e) {
                  by_conference.push_back(e.find("title")->as_string());
                },
                {}, /*durable=*/true);
  fx.overlay.run();
  sub.detach();
  fx.overlay.run();
  ASSERT_TRUE(sub.detached());

  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "both"));
  fx.publisher->publish(pub_event(2002, "SOSP", "Eugster", "year-only"));
  fx.publisher->publish(pub_event(1999, "ICDCS", "Eugster", "conf-only"));
  fx.publisher->publish(pub_event(1999, "SOSP", "Eugster", "neither"));
  fx.overlay.run();
  EXPECT_TRUE(by_year.empty());
  EXPECT_TRUE(by_conference.empty());

  sub.resume();
  fx.overlay.run();
  EXPECT_EQ(by_year, (std::vector<std::string>{"both", "year-only"}));
  EXPECT_EQ(by_conference, (std::vector<std::string>{"both", "conf-only"}));
  EXPECT_EQ(sub.stats().events_received, 3u);
  EXPECT_EQ(fx.overlay.root().stats().events_buffered, 3u);
  EXPECT_EQ(fx.overlay.root().stats().events_replayed, 3u);
}

// ---- composite subscriptions -------------------------------------------------

TEST(Composite, HandlerFiresOncePerMatchingEvent) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  // Two overlapping disjuncts: events matching both must deliver once.
  sub.subscribe_any(
      {FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2002}).build(),
       FilterBuilder{"Publication"}
           .where("author", Op::Eq, Value{"Eugster"})
           .build()},
      [&](const EventImage&) { ++count; });
  fx.overlay.run();

  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "both"));
  fx.publisher->publish(pub_event(2002, "ICDCS", "Felber", "year-only"));
  fx.publisher->publish(pub_event(1999, "PODC", "Eugster", "author-only"));
  fx.publisher->publish(pub_event(1999, "PODC", "Lamport", "neither"));
  fx.overlay.run();
  EXPECT_EQ(count, 3);
}

TEST(Composite, IndependentSubscriptionsStillFirePerSubscription) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int composite = 0, plain = 0;
  sub.subscribe_any(
      {FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2002}).build(),
       FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2001}).build()},
      [&](const EventImage&) { ++composite; });
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++plain; });
  fx.overlay.run();
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "t"));
  fx.overlay.run();
  EXPECT_EQ(composite, 1);
  EXPECT_EQ(plain, 1);
}

TEST(Composite, MembersCanBeUnsubscribedIndividually) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  const auto tokens = sub.subscribe_any(
      {FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2002}).build(),
       FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2001}).build()},
      [&](const EventImage&) { ++count; });
  ASSERT_EQ(tokens.size(), 2u);
  fx.overlay.run();

  sub.unsubscribe(tokens[0]);
  fx.overlay.run();
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "t"));
  fx.publisher->publish(pub_event(2001, "ICDCS", "Eugster", "t"));
  fx.overlay.run();
  EXPECT_EQ(count, 1);  // only the 2001 disjunct remains
}

// ---- malformed frames ---------------------------------------------------------

TEST(Robustness, BrokersAndSubscribersDropCorruptFrames) {
  Fx fx;
  auto& sub = fx.overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  fx.overlay.run();

  // Garbage straight onto the wire, to a broker and to the subscriber.
  sim::Network::Payload garbage{std::byte{0xde}, std::byte{0xad},
                                std::byte{0xbe}, std::byte{0xef}};
  fx.overlay.network().send(999, fx.overlay.root().id(), garbage);
  fx.overlay.network().send(999, sub.id(), garbage);
  fx.overlay.run();

  EXPECT_EQ(fx.overlay.root().stats().malformed_packets, 1u);
  EXPECT_EQ(sub.stats().malformed_packets, 1u);

  // The system keeps working.
  fx.publisher->publish(pub_event(2002, "ICDCS", "Eugster", "t"));
  fx.overlay.run();
  EXPECT_EQ(count, 1);
}

// ---- schema automation ---------------------------------------------------------

TEST(AutoSchema, DerivedFromSampledEventStream) {
  workload::ensure_types_registered();
  workload::BiblioGenerator gen{{}, 5};
  std::vector<EventImage> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(gen.next_event());

  const auto& type = reflect::TypeRegistry::global().get("Publication");
  const weaken::StageSchema schema = weaken::auto_schema(type, sample, 4);

  // Observed cardinalities: year (6) < conference (15) < author (100) <
  // title (many) — the automation must recover the paper's ordering.
  EXPECT_EQ(schema.attributes_at(3), std::vector<std::string>{"year"});
  EXPECT_EQ(schema.attributes_at(2),
            (std::vector<std::string>{"year", "conference"}));
  EXPECT_EQ(schema.attributes_at(0).size(), 4u);
  EXPECT_EQ(schema.type_name(), "Publication");
}

TEST(AutoSchema, WorksEndToEndInTheOverlay) {
  Fx fx;
  workload::BiblioGenerator gen{{}, 6};
  std::vector<EventImage> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(gen.next_event());
  const auto& type = reflect::TypeRegistry::global().get("Publication");
  fx.publisher->advertise(weaken::auto_schema(type, sample, 4));
  fx.overlay.run();

  std::vector<filter::ConjunctiveFilter> filters;
  std::vector<int> received(10, 0), expected(10, 0);
  for (int i = 0; i < 10; ++i) {
    filters.push_back(gen.next_subscription());
    fx.overlay.add_subscriber().subscribe(
        filters[i], [&received, i](const EventImage&) { ++received[i]; });
    fx.overlay.run();
  }
  for (int e = 0; e < 300; ++e) {
    const EventImage image = gen.next_event();
    for (int i = 0; i < 10; ++i)
      if (filters[i].matches(image, fx.overlay.registry())) ++expected[i];
    fx.publisher->publish(image);
  }
  fx.overlay.run();
  EXPECT_EQ(received, expected);
}

}  // namespace
}  // namespace cake
