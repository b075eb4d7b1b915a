// Unit tests for the §5.1 metrics: LC, RLC, MR and per-stage aggregation.
#include "cake/metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cake/workload/generators.hpp"

namespace cake::metrics {
namespace {

TEST(NodeLoad, LcIsEventsTimesFilters) {
  NodeLoad load{.id = 1, .stage = 1, .events_received = 100,
                .events_matched = 50, .filters = 7};
  EXPECT_DOUBLE_EQ(load.lc(), 700.0);
}

TEST(NodeLoad, RlcNormalizesAgainstGlobalWork) {
  NodeLoad load{.id = 1, .stage = 1, .events_received = 100,
                .events_matched = 50, .filters = 7};
  EXPECT_DOUBLE_EQ(load.rlc(1000, 70), 700.0 / 70'000.0);
  EXPECT_DOUBLE_EQ(load.rlc(0, 70), 0.0);  // degenerate denominators
  EXPECT_DOUBLE_EQ(load.rlc(1000, 0), 0.0);
}

TEST(NodeLoad, CentralizedServerRlcIsOne) {
  // A server holding all N subscriptions and seeing all E events.
  NodeLoad server{.id = 0, .stage = 1, .events_received = 500,
                  .events_matched = 100, .filters = 42};
  EXPECT_DOUBLE_EQ(server.rlc(500, 42), 1.0);
}

TEST(NodeLoad, MatchingRate) {
  NodeLoad load{.id = 1, .stage = 0, .events_received = 200,
                .events_matched = 174, .filters = 1};
  EXPECT_DOUBLE_EQ(load.mr(), 0.87);
  NodeLoad idle{.id = 2, .stage = 0, .events_received = 0, .events_matched = 0,
                .filters = 1};
  EXPECT_DOUBLE_EQ(idle.mr(), 0.0);
}

TEST(Summaries, GroupsByStageAndAverages) {
  std::vector<NodeLoad> loads{
      {.id = 1, .stage = 0, .events_received = 10, .events_matched = 10, .filters = 1},
      {.id = 2, .stage = 0, .events_received = 20, .events_matched = 10, .filters = 1},
      {.id = 3, .stage = 1, .events_received = 100, .events_matched = 50, .filters = 4},
  };
  const auto summaries = summarize_by_stage(loads, 100, 10);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].stage, 0u);
  EXPECT_EQ(summaries[0].nodes, 2u);
  EXPECT_DOUBLE_EQ(summaries[0].node_avg_mr, 0.75);  // (1.0 + 0.5) / 2
  EXPECT_DOUBLE_EQ(summaries[0].node_avg_lc, 15.0);
  EXPECT_DOUBLE_EQ(summaries[0].node_avg_rlc, 15.0 / 1000.0);
  EXPECT_DOUBLE_EQ(summaries[0].total_node_rlc, 30.0 / 1000.0);
  EXPECT_EQ(summaries[1].stage, 1u);
  EXPECT_DOUBLE_EQ(summaries[1].node_avg_rlc, 400.0 / 1000.0);
  EXPECT_DOUBLE_EQ(global_rlc(summaries), 30.0 / 1000.0 + 400.0 / 1000.0);
}

TEST(Summaries, EmptyInput) {
  EXPECT_TRUE(summarize_by_stage({}, 10, 10).empty());
  EXPECT_DOUBLE_EQ(global_rlc({}), 0.0);
}

TEST(Tables, RlcTableHasPaperColumns) {
  std::vector<NodeLoad> loads{
      {.id = 1, .stage = 0, .events_received = 10, .events_matched = 10, .filters = 1}};
  const auto table = rlc_table(summarize_by_stage(loads, 100, 10));
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("Node avg. of RLC"), std::string::npos);
  EXPECT_NE(os.str().find("Total node avg. of RLC"), std::string::npos);
}

TEST(Tables, StageTableRenders) {
  std::vector<NodeLoad> loads{
      {.id = 1, .stage = 2, .events_received = 10, .events_matched = 5, .filters = 3}};
  const auto table = stage_table(summarize_by_stage(loads, 10, 3));
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("Avg MR"), std::string::npos);
  EXPECT_EQ(table.rows(), 1u);
}

TEST(Collection, CollectsFromLiveOverlay) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 2, 4};
  routing::Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema());
  overlay.run();

  workload::BiblioGenerator gen{{}, 5};
  for (int i = 0; i < 10; ++i) {
    auto& sub = overlay.add_subscriber();
    sub.subscribe(gen.next_subscription(), {});
    overlay.run();
  }
  for (int e = 0; e < 200; ++e) pub.publish(gen.next_event());
  overlay.run();

  const auto brokers = broker_loads(overlay);
  EXPECT_EQ(brokers.size(), 7u);
  const auto subs = subscriber_loads(overlay);
  EXPECT_EQ(subs.size(), 10u);
  for (const auto& s : subs) {
    EXPECT_EQ(s.stage, 0u);
    EXPECT_EQ(s.filters, 1u);
    EXPECT_LE(s.events_matched, s.events_received);
  }

  // Root saw all 200 events; its RLC must sit well below the centralized
  // server's 1 because it holds only weakened filters.
  auto all = brokers;
  all.insert(all.end(), subs.begin(), subs.end());
  const auto summaries = summarize_by_stage(all, 200, 10);
  ASSERT_EQ(summaries.size(), 4u);  // stages 0..3
  const auto& root_row = summaries.back();
  EXPECT_EQ(root_row.nodes, 1u);
  EXPECT_EQ(root_row.events_received, 200u);
  EXPECT_LT(root_row.node_avg_rlc, 1.0);
}

TEST(ShardMetrics, ImbalanceIsMaxOverMean) {
  std::vector<index::ShardStats> shards{
      {.shard = 0, .matches = 300, .hits = 30, .filters = 2},
      {.shard = 1, .matches = 100, .hits = 10, .filters = 1},
      {.shard = 2, .matches = 0, .hits = 0, .filters = 0},
      {.shard = 3, .matches = 0, .hits = 0, .filters = 0},
  };
  // mean = 100, max = 300
  EXPECT_DOUBLE_EQ(shard_imbalance(shards), 3.0);
  EXPECT_DOUBLE_EQ(shard_imbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(
      shard_imbalance({{.shard = 0, .matches = 0, .hits = 0, .filters = 5}}),
      0.0);  // no traffic yet
}

TEST(ShardMetrics, PerfectlyEvenTrafficScoresOne) {
  std::vector<index::ShardStats> shards;
  for (std::size_t i = 0; i < 8; ++i)
    shards.push_back({.shard = i, .matches = 50, .hits = 5, .filters = 1});
  EXPECT_DOUBLE_EQ(shard_imbalance(shards), 1.0);
}

TEST(ShardMetrics, ImbalanceReadsLiveShardCounters) {
  workload::ensure_types_registered();
  index::ShardedIndex sharded{reflect::TypeRegistry::global(), 4};
  sharded.add(filter::FilterBuilder{"Stock"}.build());
  std::vector<index::FilterId> out;
  for (int i = 0; i < 10; ++i)
    sharded.match(event::image_of(workload::Stock{"S", 1.0, i}), out);

  const auto stats = sharded.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t matches = 0, hits = 0;
  std::size_t filters = 0;
  for (const auto& s : stats) {
    matches += s.matches;
    hits += s.hits;
    filters += s.filters;
  }
  EXPECT_EQ(matches, 10u);  // one shard consulted per match call
  EXPECT_EQ(hits, 10u);     // the filter matched every event
  EXPECT_EQ(filters, 1u);   // exact-type filter lives in exactly one shard
  // All traffic hit the one shard holding the filter: 4 shards, max = 4×mean.
  EXPECT_DOUBLE_EQ(shard_imbalance(stats), 4.0);
}

}  // namespace
}  // namespace cake::metrics
