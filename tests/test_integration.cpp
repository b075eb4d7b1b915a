// End-to-end integration tests of the multi-stage filtering system.
//
// The centerpiece is the paper's end-to-end guarantee: pre-filtering at
// intermediate stages is approximate but *never loses* an event — the set
// of events each subscriber receives equals the set selected by applying
// its original exact filter (closures included) to the full published
// stream.
#include <gtest/gtest.h>

#include <map>

#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using routing::Broker;
using routing::Overlay;
using routing::OverlayConfig;
using value::Value;

struct Fixture {
  explicit Fixture(OverlayConfig config = make_default_config(),
                   std::uint64_t seed = 1) : overlay(config), gen({}, seed) {
    workload::ensure_types_registered();
    publisher = &overlay.add_publisher();
    publisher->advertise(workload::BiblioGenerator::schema());
    overlay.run();
  }

  static OverlayConfig make_default_config() {
    OverlayConfig config;
    config.stage_counts = {1, 3, 9};
    return config;
  }

  Overlay overlay;
  workload::BiblioGenerator gen;
  routing::PublisherNode* publisher = nullptr;
};

// ---- the safety property ----------------------------------------------------

class SafetyProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SafetyProperty, DeliveredSetEqualsOracleSet) {
  const std::size_t wildcards = GetParam();
  Fixture fx;
  constexpr int kSubscribers = 40;
  constexpr int kEvents = 400;

  // Install subscribers with random (possibly wildcarded) filters.
  std::vector<ConjunctiveFilter> filters;
  std::vector<std::vector<std::string>> received(kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    const ConjunctiveFilter f = fx.gen.next_subscription(
        wildcards == 9 ? i % 4 : wildcards);  // 9 = mixed sweep
    filters.push_back(f);
    auto& sub = fx.overlay.add_subscriber();
    sub.subscribe(f, [&received, i](const EventImage& e) {
      received[i].push_back(e.to_string());
    });
  }
  fx.overlay.run();

  // Publish and compute the oracle in lockstep.
  std::vector<std::vector<std::string>> expected(kSubscribers);
  const auto& registry = fx.overlay.registry();
  for (int e = 0; e < kEvents; ++e) {
    const EventImage image = fx.gen.next_event();
    for (int i = 0; i < kSubscribers; ++i) {
      // The oracle applies the *standard form* like the runtime does; both
      // match identically, but keep it bit-faithful.
      if (filters[i].matches(image, registry))
        expected[i].push_back(image.to_string());
    }
    fx.publisher->publish(image);
  }
  fx.overlay.run();

  for (int i = 0; i < kSubscribers; ++i) {
    EXPECT_EQ(received[i], expected[i]) << "subscriber " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(WildcardMixes, SafetyProperty,
                         ::testing::Values(0, 1, 2, 9),
                         [](const auto& info) {
                           return info.param == 9
                                      ? std::string{"Mixed"}
                                      : "Wildcards" + std::to_string(info.param);
                         });

TEST(Integration, SafetyHoldsUnderTtlChurnWithRenewals) {
  OverlayConfig config = Fixture::make_default_config();
  config.broker.ttl = 2'000'000;
  config.broker.renew_interval = 900'000;
  config.broker.reap_interval = 1'000'000;
  config.subscriber.renew_interval = 900'000;
  Fixture fx{config};

  std::vector<ConjunctiveFilter> filters;
  std::vector<int> received(10, 0), expected(10, 0);
  for (int i = 0; i < 10; ++i) {
    filters.push_back(fx.gen.next_subscription());
    auto& sub = fx.overlay.add_subscriber();
    sub.subscribe(filters[i], [&received, i](const EventImage&) { ++received[i]; });
  }
  fx.overlay.run();

  // Publish in bursts separated by multiples of the TTL.
  for (int burst = 0; burst < 8; ++burst) {
    for (int e = 0; e < 50; ++e) {
      const EventImage image = fx.gen.next_event();
      for (int i = 0; i < 10; ++i)
        if (filters[i].matches(image, fx.overlay.registry())) ++expected[i];
      fx.publisher->publish(image);
    }
    fx.overlay.run();
    fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 3'000'000);
  }
  EXPECT_EQ(received, expected);
}

// ---- pre-filtering efficiency ----------------------------------------------

TEST(Integration, PreFilteringDropsIrrelevantTrafficEarly) {
  Fixture fx;
  // One narrow subscription: everything else should die near the root.
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{1995})
                    .where("conference", Op::Eq, Value{"conf-0"})
                    .where("author", Op::Eq, Value{"author-0"})
                    .where("title", Op::Eq, Value{"title-0-0-0-0"})
                    .build(),
                {});
  fx.overlay.run();

  for (int e = 0; e < 500; ++e) fx.publisher->publish(fx.gen.next_event());
  fx.overlay.run();

  const auto root_stats = fx.overlay.root().stats();
  EXPECT_EQ(root_stats.events_received, 500u);
  // Stage-1 brokers collectively received only what the root matched.
  std::uint64_t stage1_received = 0;
  for (Broker* b : fx.overlay.brokers_at(1)) stage1_received += b->stats().events_received;
  std::uint64_t stage2_forwarded = 0;
  for (Broker* b : fx.overlay.brokers_at(2)) stage2_forwarded += b->stats().events_forwarded;
  EXPECT_EQ(stage1_received, stage2_forwarded);
  EXPECT_LT(stage1_received, 500u);
  // And the subscriber got even less than stage 1 received.
  EXPECT_LE(sub.stats().events_received, stage1_received);
}

TEST(Integration, SimilarSubscriptionsClusterUnderOneSubtree) {
  Fixture fx;
  // 12 subscribers sharing (year, conference, author), different titles.
  std::vector<std::uint64_t> tokens;
  std::vector<routing::SubscriberNode*> subs;
  for (int i = 0; i < 12; ++i) {
    auto& sub = fx.overlay.add_subscriber();
    tokens.push_back(sub.subscribe(
        FilterBuilder{"Publication"}
            .where("year", Op::Eq, Value{2002})
            .where("conference", Op::Eq, Value{"ICDCS"})
            .where("author", Op::Eq, Value{"Eugster"})
            .where("title", Op::Eq,
                   Value{std::string{"t"}.append(std::to_string(i))})
            .build(),
        {}));
    subs.push_back(&sub);
    // Let each join settle so the covering search can see the previous
    // subscriptions (concurrent joins may race past each other, which is
    // legal but defeats the clustering this test asserts).
    fx.overlay.run();
  }

  std::map<sim::NodeId, int> homes;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const auto home = subs[i]->accepted_at(tokens[i]);
    ASSERT_TRUE(home.has_value());
    ++homes[*home];
  }
  // The covering search funnels all of them to the leaf that got the first
  // one: a single home node.
  EXPECT_EQ(homes.size(), 1u);

  // Exactly one stage-1 entry and one path: the weakened forms collapsed.
  std::size_t stage1_filters = 0;
  for (Broker* b : fx.overlay.brokers_at(1)) stage1_filters += b->stats().filters;
  EXPECT_EQ(stage1_filters, 1u);
}

TEST(Integration, RandomPlacementScattersSimilarSubscriptions) {
  OverlayConfig config = Fixture::make_default_config();
  config.broker.placement = routing::Placement::Random;
  Fixture fx{config};
  std::vector<std::uint64_t> tokens;
  std::vector<routing::SubscriberNode*> subs;
  for (int i = 0; i < 12; ++i) {
    auto& sub = fx.overlay.add_subscriber();
    tokens.push_back(sub.subscribe(
        FilterBuilder{"Publication"}
            .where("year", Op::Eq, Value{2002})
            .where("conference", Op::Eq, Value{"ICDCS"})
            .where("author", Op::Eq, Value{"Eugster"})
            .where("title", Op::Eq,
                   Value{std::string{"t"}.append(std::to_string(i))})
            .build(),
        {}));
    subs.push_back(&sub);
  }
  fx.overlay.run();
  std::map<sim::NodeId, int> homes;
  for (std::size_t i = 0; i < subs.size(); ++i)
    ++homes[*subs[i]->accepted_at(tokens[i])];
  // With 9 leaves and 12 random walks, clustering at one node is
  // practically impossible.
  EXPECT_GT(homes.size(), 1u);
}

TEST(Integration, WildcardSubscriberSitsAboveStageOne) {
  Fixture fx;
  auto& sub = fx.overlay.add_subscriber();
  const auto token = sub.subscribe(FilterBuilder{"Publication"}
                                       .where("year", Op::Eq, Value{1995})
                                       .build(),  // conference/author/title ALL
                                   {});
  fx.overlay.run();
  const auto home = sub.accepted_at(token);
  ASSERT_TRUE(home.has_value());
  // conference is used up to stage 2 ⇒ most general wildcard = conference,
  // attach at stage 3 (the root).
  EXPECT_EQ(*home, fx.overlay.root().id());
}

TEST(Integration, WildcardTitleOnlyAttachesAtStageOne) {
  Fixture fx;
  auto& sub = fx.overlay.add_subscriber();
  const auto token = sub.subscribe(FilterBuilder{"Publication"}
                                       .where("year", Op::Eq, Value{1995})
                                       .where("conference", Op::Eq, Value{"conf-1"})
                                       .where("author", Op::Eq, Value{"author-2"})
                                       .build(),
                                   {});
  fx.overlay.run();
  const auto home = sub.accepted_at(token);
  ASSERT_TRUE(home.has_value());
  bool at_stage1 = false;
  for (Broker* b : fx.overlay.brokers_at(1)) at_stage1 |= (b->id() == *home);
  EXPECT_TRUE(at_stage1);
}

TEST(Integration, DeepHierarchySafety) {
  OverlayConfig config;
  config.stage_counts = {1, 2, 4, 8, 16};  // five broker stages
  Fixture fx{config};
  std::vector<ConjunctiveFilter> filters;
  std::vector<int> received(8, 0), expected(8, 0);
  for (int i = 0; i < 8; ++i) {
    filters.push_back(fx.gen.next_subscription(i % 3));
    auto& sub = fx.overlay.add_subscriber();
    sub.subscribe(filters[i], [&received, i](const EventImage&) { ++received[i]; });
  }
  fx.overlay.run();
  for (int e = 0; e < 300; ++e) {
    const EventImage image = fx.gen.next_event();
    for (int i = 0; i < 8; ++i)
      if (filters[i].matches(image, fx.overlay.registry())) ++expected[i];
    fx.publisher->publish(image);
  }
  fx.overlay.run();
  EXPECT_EQ(received, expected);
}

TEST(Integration, DeliveryLatencyIsHopsTimesLinkLatency) {
  // Publisher → root → stage-2 → stage-1 → subscriber = 4 hops of 1 ms.
  // The filter specifies all four attributes, so it lands at stage 1.
  Fixture fx;
  auto& sub = fx.overlay.add_subscriber();
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{1995})
                    .where("conference", Op::Eq, Value{"c"})
                    .where("author", Op::Eq, Value{"a"})
                    .where("title", Op::Eq, Value{"t"})
                    .build(),
                {});
  fx.overlay.run();

  for (int i = 0; i < 5; ++i)
    fx.publisher->publish(EventImage{"Publication",
                                     {{"year", Value{1995}},
                                      {"conference", Value{"c"}},
                                      {"author", Value{"a"}},
                                      {"title", Value{"t"}}}});
  fx.overlay.run();

  const util::RunningStats latency = metrics::delivery_latency(fx.overlay);
  EXPECT_EQ(latency.count(), 5u);
  EXPECT_DOUBLE_EQ(latency.mean(), 4000.0);
  EXPECT_DOUBLE_EQ(latency.min(), 4000.0);
  EXPECT_DOUBLE_EQ(latency.max(), 4000.0);
}

TEST(Integration, WildcardSubscriberAtRootHasShorterPath) {
  Fixture fx;
  auto& sub = fx.overlay.add_subscriber();
  // Conference wildcard → attaches at the root → 2 hops only.
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{1995})
                    .build(),
                {});
  fx.overlay.run();
  fx.publisher->publish(EventImage{"Publication",
                                   {{"year", Value{1995}},
                                    {"conference", Value{"c"}},
                                    {"author", Value{"a"}},
                                    {"title", Value{"t"}}}});
  fx.overlay.run();
  EXPECT_DOUBLE_EQ(sub.delivery_latency().mean(), 2000.0);
}

TEST(Integration, RegexSubscriptionsRouteEndToEnd) {
  // §2.1's "regular expressions" rung, exercised through the full overlay:
  // the regex constraint rides the weakened filters like any other.
  Fixture fx;
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> titles;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{1995})
                    .where("conference", Op::Eq, Value{"conf-0"})
                    .where("author", Op::Eq, Value{"author-0"})
                    .where("title", Op::Regex, Value{"title-0-0-0-[01]"})
                    .build(),
                [&](const EventImage& e) {
                  titles.push_back(e.find("title")->as_string());
                });
  fx.overlay.run();

  auto publish_title = [&](const char* title) {
    fx.publisher->publish(EventImage{"Publication",
                                     {{"year", Value{1995}},
                                      {"conference", Value{"conf-0"}},
                                      {"author", Value{"author-0"}},
                                      {"title", Value{title}}}});
  };
  publish_title("title-0-0-0-0");
  publish_title("title-0-0-0-1");
  publish_title("title-0-0-0-2");  // rejected by the class [01]
  fx.overlay.run();
  EXPECT_EQ(titles,
            (std::vector<std::string>{"title-0-0-0-0", "title-0-0-0-1"}));
}

TEST(Integration, TwoEventClassesFlowConcurrently) {
  // Stock quotes and publications interleave through the same overlay;
  // every subscriber sees only its class.
  Fixture fx;
  fx.publisher->advertise(workload::StockGenerator::schema());
  fx.overlay.run();

  auto& reader = fx.overlay.add_subscriber();
  auto& trader = fx.overlay.add_subscriber();
  int papers = 0, quotes = 0;
  reader.subscribe(FilterBuilder{"Publication"}
                       .where("year", Op::Eq, Value{1995})
                       .build(),
                   [&](const EventImage&) { ++papers; });
  trader.subscribe(FilterBuilder{"Stock"}
                       .where("symbol", Op::Eq, Value{"AAA"})
                       .build(),
                   [&](const EventImage&) { ++quotes; });
  fx.overlay.run();

  for (int i = 0; i < 3; ++i) {
    fx.publisher->publish(EventImage{"Publication",
                                     {{"year", Value{1995}},
                                      {"conference", Value{"c"}},
                                      {"author", Value{"a"}},
                                      {"title", Value{"t"}}}});
    fx.publisher->publish(
        event::image_of(workload::Stock{"AAA", 10.0 + i, 100}));
    fx.publisher->publish(
        event::image_of(workload::Stock{"BBB", 10.0 + i, 100}));
  }
  fx.overlay.run();
  EXPECT_EQ(papers, 3);
  EXPECT_EQ(quotes, 3);
}

TEST(Integration, PerPublisherFifoOrderingIsPreserved) {
  // The virtual network is FIFO per link and brokers forward synchronously,
  // so each subscriber sees any one publisher's events in publish order —
  // an invariant applications can lean on.
  Fixture fx;
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> seen;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{1995})
                    .where("conference", Op::Eq, Value{"c"})
                    .where("author", Op::Eq, Value{"a"})
                    .where("title", Op::Prefix, Value{"t"})
                    .build(),
                [&](const EventImage& e) {
                  seen.push_back(e.find("title")->as_string());
                });
  fx.overlay.run();

  auto& second = fx.overlay.add_publisher();
  std::vector<std::string> first_order, second_order;
  for (int i = 0; i < 50; ++i) {
    const std::string t1 = "t-p1-" + std::to_string(i);
    const std::string t2 = "t-p2-" + std::to_string(i);
    first_order.push_back(t1);
    second_order.push_back(t2);
    fx.publisher->publish(EventImage{"Publication",
                                     {{"year", Value{1995}},
                                      {"conference", Value{"c"}},
                                      {"author", Value{"a"}},
                                      {"title", Value{t1}}}});
    second.publish(EventImage{"Publication",
                              {{"year", Value{1995}},
                               {"conference", Value{"c"}},
                               {"author", Value{"a"}},
                               {"title", Value{t2}}}});
  }
  fx.overlay.run();
  ASSERT_EQ(seen.size(), 100u);

  std::vector<std::string> from_first, from_second;
  for (const auto& title : seen) {
    (title.rfind("t-p1-", 0) == 0 ? from_first : from_second).push_back(title);
  }
  EXPECT_EQ(from_first, first_order);
  EXPECT_EQ(from_second, second_order);
}

TEST(Integration, TypeHierarchyRoutedEndToEnd) {
  OverlayConfig config;
  config.stage_counts = {1, 2};
  Overlay overlay{config};
  workload::ensure_types_registered();
  auto& pub = overlay.add_publisher();
  const auto& registry = reflect::TypeRegistry::global();
  pub.advertise(weaken::StageSchema::drop_one_per_stage(
      registry.get("Auction"), 3));
  pub.advertise(weaken::StageSchema::drop_one_per_stage(
      registry.get("VehicleAuction"), 3));
  pub.advertise(weaken::StageSchema::drop_one_per_stage(
      registry.get("CarAuction"), 3));
  overlay.run();

  auto& all_auctions = overlay.add_subscriber();
  auto& vehicles_only = overlay.add_subscriber();
  int all_count = 0, vehicle_count = 0;
  all_auctions.subscribe(FilterBuilder{"Auction", true}.build(),
                         [&](const EventImage&) { ++all_count; });
  vehicles_only.subscribe(FilterBuilder{"VehicleAuction", true}
                              .where("price", Op::Lt, Value{10'000.0})
                              .build(),
                          [&](const EventImage&) { ++vehicle_count; });
  overlay.run();

  pub.publish(workload::Auction{"Estate", 5'000.0});          // all only
  pub.publish(workload::VehicleAuction{8'000.0, "Van", 6});   // both
  pub.publish(workload::CarAuction{9'000.0, 4, 5});           // both
  pub.publish(workload::CarAuction{20'000.0, 4, 5});          // all only
  pub.publish(workload::Stock{"Foo", 1.0, 1});                // neither
  overlay.run();

  EXPECT_EQ(all_count, 4);
  EXPECT_EQ(vehicle_count, 2);
}

}  // namespace
}  // namespace cake
