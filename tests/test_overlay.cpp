// Unit tests for overlay construction and topology wiring.
#include "cake/routing/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "cake/workload/generators.hpp"

namespace cake::routing {
namespace {

TEST(Overlay, RequiresSingleRoot) {
  OverlayConfig config;
  config.stage_counts = {2, 4};
  EXPECT_THROW(Overlay{config}, std::invalid_argument);
  config.stage_counts = {};
  EXPECT_THROW(Overlay{config}, std::invalid_argument);
}

TEST(Overlay, PaperTopologyCounts) {
  OverlayConfig config;
  config.stage_counts = {1, 10, 100};
  Overlay overlay{config};
  EXPECT_EQ(overlay.stages(), 3u);
  EXPECT_EQ(overlay.brokers().size(), 111u);
  EXPECT_EQ(overlay.brokers_at(3).size(), 1u);
  EXPECT_EQ(overlay.brokers_at(2).size(), 10u);
  EXPECT_EQ(overlay.brokers_at(1).size(), 100u);
  EXPECT_THROW(overlay.brokers_at(0), std::out_of_range);
  EXPECT_THROW(overlay.brokers_at(4), std::out_of_range);
}

TEST(Overlay, RootHasNoParentAndCorrectStage) {
  OverlayConfig config;
  config.stage_counts = {1, 3, 9};
  Overlay overlay{config};
  EXPECT_TRUE(overlay.root().is_root());
  EXPECT_EQ(overlay.root().stage(), 3u);
  for (Broker* leaf : overlay.brokers_at(1)) {
    EXPECT_EQ(leaf->stage(), 1u);
    EXPECT_FALSE(leaf->is_root());
    EXPECT_TRUE(leaf->children().empty());
  }
}

TEST(Overlay, ChildrenDistributedEvenly) {
  OverlayConfig config;
  config.stage_counts = {1, 4, 16};
  Overlay overlay{config};
  EXPECT_EQ(overlay.root().children().size(), 4u);
  for (Broker* mid : overlay.brokers_at(2))
    EXPECT_EQ(mid->children().size(), 4u);
}

TEST(Overlay, UnevenFanoutStillCoversAllChildren) {
  OverlayConfig config;
  config.stage_counts = {1, 3, 10};
  Overlay overlay{config};
  std::size_t total_children = 0;
  std::set<sim::NodeId> seen;
  for (Broker* mid : overlay.brokers_at(2)) {
    total_children += mid->children().size();
    for (const sim::NodeId child : mid->children()) seen.insert(child);
  }
  EXPECT_EQ(total_children, 10u);
  EXPECT_EQ(seen.size(), 10u);  // every leaf has exactly one parent
}

TEST(Overlay, SingleStageHierarchy) {
  OverlayConfig config;
  config.stage_counts = {1};
  Overlay overlay{config};
  EXPECT_EQ(overlay.stages(), 1u);
  EXPECT_TRUE(overlay.root().is_root());
  EXPECT_EQ(overlay.root().stage(), 1u);
}

TEST(Overlay, EndpointIdsAreUnique) {
  OverlayConfig config;
  config.stage_counts = {1, 2};
  Overlay overlay{config};
  std::set<sim::NodeId> ids;
  for (const auto& broker : overlay.brokers()) ids.insert(broker->id());
  for (int i = 0; i < 5; ++i) ids.insert(overlay.add_subscriber().id());
  for (int i = 0; i < 3; ++i) ids.insert(overlay.add_publisher().id());
  EXPECT_EQ(ids.size(), 3u + 5u + 3u);
  EXPECT_EQ(overlay.subscribers().size(), 5u);
  EXPECT_EQ(overlay.publishers().size(), 3u);
}

TEST(Overlay, DeterministicUnderSeed) {
  // Two overlays with the same seed route a non-covered subscription to the
  // same random leaf.
  auto build_and_probe = [](std::uint64_t seed) {
    OverlayConfig config;
    config.stage_counts = {1, 4, 16};
    config.seed = seed;
    Overlay overlay{config};
    auto& sub = overlay.add_subscriber();
    sub.subscribe(filter::FilterBuilder{"Nowhere"}
                      .where("x", filter::Op::Eq, value::Value{1})
                      .build(),
                  {});
    overlay.run();
    return sub.accepted_at(1);
  };
  const auto a = build_and_probe(7);
  const auto b = build_and_probe(7);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
}

// The matching engine is an implementation detail of the broker: the
// indexed default and the Fig. 6 linear scan (`Engine::Naive`, the
// reference) must route the biblio workload identically — same handler
// calls, same per-broker counters.
TEST(Overlay, DefaultEngineRoutesExactlyLikeTheNaiveReference) {
  workload::ensure_types_registered();
  using Delivery = std::tuple<sim::NodeId, int, std::size_t>;
  auto run = [](const BrokerConfig& broker) {
    OverlayConfig config;
    config.stage_counts = {1, 4, 16};
    config.broker = broker;
    config.broker.auto_renew = false;
    config.seed = 11;
    Overlay overlay{config};
    auto& publisher = overlay.add_publisher();
    publisher.advertise(workload::BiblioGenerator::schema());
    workload::BiblioGenerator gen{{}, 2002};
    std::vector<Delivery> deliveries;
    std::size_t published = 0;
    for (int s = 0; s < 40; ++s) {
      auto& sub = overlay.add_subscriber();
      for (int k = 0; k < 8; ++k) {
        // Every fourth subscription wildcards 1-3 of the finer attributes.
        const auto filter = k % 4 == 3
                                ? gen.next_subscription(1 + (s + k) % 3)
                                : gen.next_subscription();
        sub.subscribe(filter, [&deliveries, &published, id = sub.id(),
                               k](const event::EventImage&) {
          deliveries.emplace_back(id, k, published);
        });
      }
    }
    overlay.run();
    for (; published < 600; ++published) {
      publisher.publish(gen.next_event());
      overlay.run();
    }
    std::vector<BrokerStats> stats;
    for (std::size_t stage = 1; stage <= 3; ++stage)
      for (const Broker* b : overlay.brokers_at(stage))
        stats.push_back(b->stats());
    std::sort(deliveries.begin(), deliveries.end());
    return std::pair{deliveries, stats};
  };
  BrokerConfig naive;
  naive.engine = index::Engine::Naive;
  const auto reference = run(naive);
  const auto indexed = run(BrokerConfig{});
  ASSERT_EQ(BrokerConfig{}.engine, index::Engine::Counting);
  EXPECT_GT(reference.first.size(), 100u);
  EXPECT_EQ(indexed.first, reference.first);
  ASSERT_EQ(indexed.second.size(), reference.second.size());
  for (std::size_t i = 0; i < reference.second.size(); ++i)
    EXPECT_TRUE(indexed.second[i] == reference.second[i]) << "broker " << i;
}

}  // namespace
}  // namespace cake::routing
