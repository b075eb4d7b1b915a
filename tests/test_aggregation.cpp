// Subscription-aggregation tests (ROADMAP item 3; DESIGN.md §13).
//
// Five families, all driving the same soundness contract — the merged
// table's match set is a superset of the unmerged one, never a subset:
//
//   * a seeded 200-iteration property test (per plain reference): every
//     aggregated probe is a superset of the unmerged probe, every extra
//     delivery is attributable to a constraint the representative weakened
//     away, and a non-covering population under max_loss = 0 degenerates
//     to *exact* equality;
//   * hand-computed goldens pinning the LUB for the paper's Fig. 2-style
//     shapes (covering chains, point ⊔ bound, string prefixes, one-sided
//     attributes, subtype joins) plus the k-way un-merge ordering after a
//     mid-chain expiry;
//   * an un-merge lifecycle fuzz: random add/remove/rebalance
//     interleavings hold the structural fixpoint (`check_invariants`)
//     after every operation, with a naive linear scan as match oracle;
//   * the injected-bug arm proving the fixpoint check bites (the
//     `inject_unmerge_bug` knob leaves a stale rep and must be caught);
//   * broker-level churn (subscribe / renew / expire / unsubscribe against
//     a live overlay) leaving reverse map and index in exact agreement,
//     and the trace reconciliation staying exact — zero unattributed
//     spurious deliveries — with aggregation enabled.
#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "cake/index/aggregate.hpp"
#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/trace/collector.hpp"
#include "cake/trace/oracle.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using event::image_of;
using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using index::AggregateConfig;
using index::AggregatedIndex;
using index::Engine;
using index::FilterId;
using value::Value;
using workload::Stock;

const reflect::TypeRegistry& reg() { return reflect::TypeRegistry::global(); }

// Covering-heavy Stock population: few symbols, small integer price range,
// mixed point/bound/prefix shapes — exactly the clustered-interest case the
// merger exists for.
ConjunctiveFilter random_stock_filter(util::Rng& rng) {
  static const char* symbols[] = {"AA", "AB", "AC", "B"};
  static const Op price_ops[] = {Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge};
  FilterBuilder b{"Stock"};
  const bool on_symbol = rng.chance(0.7);
  const bool on_price = !on_symbol || rng.chance(0.7);
  if (on_symbol) {
    b.where("symbol", rng.chance(0.7) ? Op::Eq : Op::Prefix,
            Value{symbols[rng.below(4)]});
  }
  if (on_price) {
    b.where("price", price_ops[rng.below(std::size(price_ops))],
            Value{static_cast<double>(rng.between(0, 10))});
  }
  return b.build();
}

EventImage random_stock_event(util::Rng& rng) {
  static const char* symbols[] = {"AA", "AB", "AC", "B", "C"};
  return image_of(Stock{symbols[rng.below(5)],
                        static_cast<double>(rng.between(0, 12)),
                        static_cast<std::int64_t>(rng.between(1, 100))});
}

std::vector<FilterId> sorted_match(const index::MatchIndex& index,
                                   const EventImage& image) {
  std::vector<FilterId> out;
  index.match(image, out);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Family 1: the superset property, against each plain reference table.
// ---------------------------------------------------------------------------

class AggregationProperty : public ::testing::TestWithParam<Engine> {};

// 200 seeded populations: the aggregated match set contains the unmerged
// one on every probe, and every *extra* id is fully attributable — its
// exact filter fails the event, some live representative covering it
// matches, and the failing constraint was weakened away (not kept verbatim
// by that representative).
TEST_P(AggregationProperty, MergedMatchSetIsAttributableSuperset) {
  workload::ensure_types_registered();
  std::uint64_t total_extras = 0, total_merges = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng{seed};
    auto plain = index::make_index(GetParam(), reg());
    AggregateConfig config;
    config.enabled = true;
    AggregatedIndex agg{config, reg()};

    const std::size_t n = 8 + rng.below(16);
    for (std::size_t i = 0; i < n; ++i) {
      ConjunctiveFilter f = random_stock_filter(rng);
      const FilterId a = plain->add(f);
      const FilterId b = agg.add(std::move(f));
      ASSERT_EQ(a, b) << "seed " << seed << ": id sequences diverged";
    }
    ASSERT_EQ(agg.size(), n);
    ASSERT_EQ(agg.stats().constituents, n);
    ASSERT_EQ(agg.check_invariants(), "") << "seed " << seed;
    total_merges += agg.stats().merges;

    const auto reps = agg.group_reps();
    ASSERT_EQ(reps.size(), agg.stats().groups);
    for (std::size_t probe = 0; probe < 6; ++probe) {
      const EventImage image = random_stock_event(rng);
      const auto exact = sorted_match(*plain, image);
      const auto merged = sorted_match(agg, image);
      ASSERT_TRUE(std::includes(merged.begin(), merged.end(), exact.begin(),
                                exact.end()))
          << "seed " << seed << ": aggregated match lost an id (false negative)";

      std::vector<FilterId> extras;
      std::set_difference(merged.begin(), merged.end(), exact.begin(),
                          exact.end(), std::back_inserter(extras));
      total_extras += extras.size();
      for (const FilterId id : extras) {
        const ConjunctiveFilter* member = agg.find(id);
        ASSERT_NE(member, nullptr) << "seed " << seed;
        ASSERT_FALSE(member->matches(image, reg()))
            << "seed " << seed << ": spurious id's exact filter matches";
        // The widening that caused this extra must be visible: a live rep
        // covers the member, matches the event, and dropped or weakened at
        // least one member constraint the event fails.
        bool attributed = false;
        for (const ConjunctiveFilter& rep : reps) {
          if (!covers(rep, *member, reg()) || !rep.matches(image, reg()))
            continue;
          for (const auto& c : member->constraints()) {
            if (c.is_wildcard() || c.matches(image)) continue;
            const bool verbatim =
                std::any_of(rep.constraints().begin(), rep.constraints().end(),
                            [&](const auto& rc) { return rc == c; });
            if (!verbatim) {
              attributed = true;
              break;
            }
          }
          if (attributed) break;
        }
        ASSERT_TRUE(attributed)
            << "seed " << seed << ": extra delivery of " << member->to_string()
            << " not explained by any weakened-away constraint";
      }
    }
  }
  // The sweep must actually exercise merging and spurious expansion, or the
  // superset check above proved nothing.
  EXPECT_GT(total_merges, 0u);
  EXPECT_GT(total_extras, 0u);
}

// Degenerate arm: a non-covering population under max_loss = 0 never
// merges, so the aggregated index is *exactly* the unmerged one — equality,
// not just superset, on every probe.
TEST_P(AggregationProperty, NonCoveringPopulationStaysExact) {
  workload::ensure_types_registered();
  util::Rng rng{4242};
  auto plain = index::make_index(GetParam(), reg());
  AggregateConfig config;
  config.enabled = true;
  config.max_loss = 0;  // merge only what the rep already covers
  AggregatedIndex agg{config, reg()};

  constexpr std::size_t kSubs = 32;
  for (std::size_t i = 0; i < kSubs; ++i) {
    // Distinct equality symbols: no pair covers, so no free merges either.
    ConjunctiveFilter f =
        FilterBuilder{"Stock"}
            .where("symbol", Op::Eq,
                   Value{std::string{"S"}.append(std::to_string(i))})
            .build();
    plain->add(f);
    agg.add(std::move(f));
  }
  EXPECT_EQ(agg.stats().groups, kSubs);
  EXPECT_EQ(agg.stats().merges, 0u);
  EXPECT_EQ(agg.stats().entries_per_subscription(), 1.0);
  for (std::size_t i = 0; i < 50; ++i) {
    const EventImage image = image_of(
        Stock{std::string{"S"}.append(std::to_string(rng.below(kSubs + 4))),
              1.0, 1});
    EXPECT_EQ(sorted_match(*plain, image), sorted_match(agg, image));
  }
  EXPECT_EQ(agg.check_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Engines, AggregationProperty,
                         ::testing::Values(Engine::Naive, Engine::Counting),
                         [](const auto& info) {
                           return info.param == Engine::Naive ? "Naive"
                                                              : "Counting";
                         });

// ---------------------------------------------------------------------------
// Family 2: hand-computed LUB goldens.
// ---------------------------------------------------------------------------

AggregatedIndex make_agg(std::size_t max_loss = 1) {
  AggregateConfig config;
  config.enabled = true;
  config.max_loss = max_loss;
  return AggregatedIndex{config, reg()};
}

ConjunctiveFilter stock_lt(double bound) {
  return FilterBuilder{"Stock"}.where("price", Op::Lt, Value{bound}).build();
}

TEST(AggregationGolden, LaxerBoundWinsTheJoin) {
  workload::ensure_types_registered();
  AggregatedIndex agg = make_agg();
  agg.add(stock_lt(10.0));
  agg.add(stock_lt(11.0));  // price<10 ⊔ price<11 → price<11 (widening)
  ASSERT_EQ(agg.stats().groups, 1u);
  EXPECT_EQ(agg.stats().widening_merges, 1u);
  EXPECT_EQ(agg.group_reps().front(), stock_lt(11.0));
  EXPECT_EQ(agg.check_invariants(), "");
}

TEST(AggregationGolden, CoveredMergeIsFreeAndKeepsTheRep) {
  workload::ensure_types_registered();
  AggregatedIndex agg = make_agg();
  agg.add(stock_lt(11.0));
  agg.add(stock_lt(10.0));  // already covered: join(rep, f) == rep
  ASSERT_EQ(agg.stats().groups, 1u);
  EXPECT_EQ(agg.stats().merges, 1u);
  EXPECT_EQ(agg.stats().widening_merges, 0u);
  EXPECT_EQ(agg.group_reps().front(), stock_lt(11.0));
}

TEST(AggregationGolden, PointJoinsBoundAsInclusiveBound) {
  workload::ensure_types_registered();
  AggregatedIndex agg = make_agg();
  agg.add(FilterBuilder{"Stock"}.where("price", Op::Eq, Value{15.0}).build());
  agg.add(stock_lt(10.0));  // price=15 ⊔ price<10 → price≤15
  ASSERT_EQ(agg.stats().groups, 1u);
  EXPECT_EQ(agg.group_reps().front(),
            FilterBuilder{"Stock"}.where("price", Op::Le, Value{15.0}).build());
}

TEST(AggregationGolden, StringEqualitiesJoinToCommonPrefix) {
  workload::ensure_types_registered();
  AggregatedIndex agg = make_agg();
  agg.add(FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"AA"}).build());
  agg.add(FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"AB"}).build());
  ASSERT_EQ(agg.stats().groups, 1u);
  EXPECT_EQ(agg.group_reps().front(),
            FilterBuilder{"Stock"}.where("symbol", Op::Prefix, Value{"A"}).build());
}

TEST(AggregationGolden, OneSidedAttributesAreDroppedByTheJoin) {
  workload::ensure_types_registered();
  AggregatedIndex agg = make_agg();
  agg.add(FilterBuilder{"Stock"}
              .where("symbol", Op::Eq, Value{"Foo"})
              .where("price", Op::Lt, Value{10.0})
              .build());
  agg.add(FilterBuilder{"Stock"}
              .where("symbol", Op::Eq, Value{"Foo"})
              .where("volume", Op::Gt, Value{std::int64_t{5}})
              .build());
  // Different constrained-attribute sets → different probe buckets: the
  // two filters keep separate groups (the signature split is what stops a
  // handful of broad joins from eating every specific interest).
  ASSERT_EQ(agg.stats().groups, 2u);
  // The LUB itself, pinned at the join level: shared symbol survives
  // verbatim, each one-sided attribute is dropped.
  EXPECT_EQ(weaken::join_filters(*agg.find(0), *agg.find(1), reg()),
            FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build());
}

TEST(AggregationGolden, SubtypeFiltersJoinAtTheNearestCommonAncestor) {
  workload::ensure_types_registered();
  const ConjunctiveFilter car = FilterBuilder{"CarAuction", true}
                                    .where("price", Op::Lt, Value{10.0})
                                    .build();
  const ConjunctiveFilter vehicle = FilterBuilder{"VehicleAuction", true}
                                        .where("price", Op::Lt, Value{12.0})
                                        .build();
  // Fig. 2-style: the type component joins to the nearest common ancestor
  // (here the covering side itself), the bound to the laxer one.
  EXPECT_EQ(weaken::join_filters(car, vehicle, reg()),
            (FilterBuilder{"VehicleAuction", true}
                 .where("price", Op::Lt, Value{12.0})
                 .build()));
  // Siblings under Auction join at Auction, not at accept-all.
  const ConjunctiveFilter truckish =
      FilterBuilder{"Auction", true}.where("price", Op::Lt, Value{8.0}).build();
  const ConjunctiveFilter joined = weaken::join_filters(car, truckish, reg());
  EXPECT_EQ(joined.type().name, "Auction");
  EXPECT_TRUE(joined.type().include_subtypes);
}

// The k-way un-merge ordering: a four-filter covering chain collapses to
// one entry; expiring members re-derives the rep as the fold of the
// *survivors in member order* — each removal steps the rep down exactly
// one link.
TEST(AggregationGolden, MidChainExpiryStepsTheRepDownTheChain) {
  workload::ensure_types_registered();
  AggregatedIndex agg = make_agg();
  const FilterId f13 = agg.add(stock_lt(13.0));
  const FilterId f12 = agg.add(stock_lt(12.0));
  agg.add(stock_lt(11.0));
  const FilterId f10 = agg.add(stock_lt(10.0));
  ASSERT_EQ(agg.stats().groups, 1u);
  ASSERT_EQ(agg.group_reps().front(), stock_lt(13.0));
  ASSERT_EQ(agg.check_invariants(), "");

  // Head expiry: survivors fold to price<12.
  agg.remove(f13);
  ASSERT_EQ(agg.stats().groups, 1u);
  EXPECT_EQ(agg.group_reps().front(), stock_lt(12.0));
  EXPECT_EQ(agg.check_invariants(), "");

  // Mid-chain expiry: fold(price<11, price<10) = price<11.
  agg.remove(f12);
  EXPECT_EQ(agg.group_reps().front(), stock_lt(11.0));
  EXPECT_EQ(agg.check_invariants(), "");
  EXPECT_EQ(agg.stats().unmerges, 2u);

  // Tail expiry leaves a singleton whose rep IS the member.
  agg.remove(f10);
  EXPECT_EQ(agg.group_reps().front(), stock_lt(11.0));
  EXPECT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg.check_invariants(), "");
}

// ---------------------------------------------------------------------------
// Family 3: the un-merge lifecycle fuzz (structural fixpoint).
// ---------------------------------------------------------------------------

// Random add/remove/rebalance interleavings: after every operation the
// reverse map and the inner index agree exactly (check_invariants recomputes
// every canonical fold), and a naive linear scan stays a subset of every
// aggregated probe.
TEST(AggregationFuzz, RandomChurnHoldsTheStructuralFixpoint) {
  workload::ensure_types_registered();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng{seed * 977};
    AggregateConfig config;
    config.enabled = true;
    config.max_group = 8;  // small groups → drops and re-folds are frequent
    config.probe_limit = 4;
    AggregatedIndex agg{config, reg()};
    std::map<FilterId, ConjunctiveFilter> live;

    for (int op = 0; op < 400; ++op) {
      if (live.empty() || rng.chance(0.55)) {
        ConjunctiveFilter f = random_stock_filter(rng);
        const FilterId id = agg.add(f);
        live.emplace(id, std::move(f));
      } else if (rng.chance(0.9)) {
        auto it = live.begin();
        std::advance(it, rng.below(live.size()));
        agg.remove(it->first);
        live.erase(it);
      } else {
        agg.rebalance(8);
      }
      ASSERT_EQ(agg.check_invariants(), "")
          << "seed " << seed << " op " << op;
      ASSERT_EQ(agg.size(), live.size());

      if (op % 25 == 0) {
        const EventImage image = random_stock_event(rng);
        const auto merged = sorted_match(agg, image);
        for (const auto& [id, f] : live) {
          if (f.matches(image, reg())) {
            ASSERT_TRUE(std::binary_search(merged.begin(), merged.end(), id))
                << "seed " << seed << " op " << op << ": lost " << f.to_string();
          }
        }
      }
    }
  }
}

// Family 4: the injected-bug arm. Skipping rep re-derivation on removal
// leaves a stale (wider) representative — still sound, but no longer the
// canonical fold — and the fixpoint check must say so. This is the proof
// that the fuzz above actually bites.
TEST(AggregationFuzz, InjectedUnmergeBugIsCaught) {
  workload::ensure_types_registered();
  AggregateConfig config;
  config.enabled = true;
  config.inject_unmerge_bug = true;
  AggregatedIndex agg{config, reg()};
  const FilterId head = agg.add(stock_lt(13.0));
  agg.add(stock_lt(10.0));
  ASSERT_EQ(agg.stats().groups, 1u);
  ASSERT_EQ(agg.check_invariants(), "");

  agg.remove(head);  // bug: rep stays price<13; canonical fold is price<10
  EXPECT_NE(agg.check_invariants(), "");
  EXPECT_EQ(agg.group_reps().front(), stock_lt(13.0)) << "stale rep expected";
}

// ---------------------------------------------------------------------------
// Family 5: broker-level lifecycle + exact trace reconciliation.
// ---------------------------------------------------------------------------

// Protocol-level churn: random subscribe / unsubscribe / halt (lease expiry
// does the cleanup) interleavings against a live aggregated overlay leave
// every broker's reverse map and inner index in exact agreement, and
// delivery stays complete for the survivors.
TEST(AggregationBroker, LeaseChurnKeepsEveryBrokerAtFixpoint) {
  workload::ensure_types_registered();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    routing::OverlayConfig config;
    config.stage_counts = {1, 2};
    config.seed = seed;
    config.broker.aggregate.enabled = true;
    config.broker.aggregate.max_group = 8;
    config.broker.ttl = 2'000'000;  // short leases: reaping happens in-test
    routing::Overlay overlay{config};
    auto& pub = overlay.add_publisher();
    pub.advertise(workload::BiblioGenerator::schema(3));
    overlay.run();

    util::Rng rng{seed};
    workload::BiblioGenerator gen{{}, seed};
    struct Sub {
      routing::SubscriberNode* node;
      std::uint64_t token;
    };
    std::vector<Sub> live;
    const auto check_all = [&](const char* when) {
      for (const auto& broker : overlay.brokers()) {
        ASSERT_NE(broker->aggregated(), nullptr);
        ASSERT_EQ(broker->aggregated()->check_invariants(), "")
            << "seed " << seed << " " << when;
      }
    };

    for (int op = 0; op < 40; ++op) {
      if (live.size() < 3 || rng.chance(0.55)) {
        auto& sub = overlay.add_subscriber();
        const std::uint64_t token =
            sub.subscribe(gen.next_subscription(op % 3), {});
        live.push_back({&sub, token});
      } else if (rng.chance(0.5)) {
        const std::size_t pick = rng.below(live.size());
        live[pick].node->unsubscribe(live[pick].token);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Silent failure: no goodbye, the lease must expire (§4.3).
        const std::size_t pick = rng.below(live.size());
        live[pick].node->halt();
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      overlay.run();
      check_all("after op");
    }
    // Let every halted subscriber's lease expire and reap (3×TTL + renew).
    overlay.scheduler().run_until(overlay.scheduler().now() + 30'000'000);
    check_all("after reap");

    // Survivors still receive exactly what their filters say.
    std::vector<ConjunctiveFilter> filters;
    std::vector<int> got, want;
    got.reserve(4);  // handlers capture cell references: no reallocation
    for (std::size_t i = 0; i < 4; ++i) {
      filters.push_back(gen.next_subscription(i % 3));
      got.push_back(0);
      want.push_back(0);
      auto& sub = overlay.add_subscriber();
      int& cell = got.back();
      sub.subscribe(filters.back(), [&cell](const EventImage&) { ++cell; });
      overlay.run();
    }
    for (int e = 0; e < 120; ++e) {
      const EventImage image = gen.next_event();
      for (std::size_t i = 0; i < filters.size(); ++i)
        if (filters[i].matches(image, reg())) ++want[i];
      pub.publish(image);
    }
    overlay.run();
    EXPECT_EQ(got, want) << "seed " << seed;
    check_all("after publish");
  }
}

// Trace reconciliation with aggregation on: the per-attribute attribution
// still sums *exactly* to the spurious-delivery count, and nothing lands in
// the (unattributed) bucket — merge-induced extras carry "⊔"-prefixed
// blame instead (endpoints.cpp).
TEST(AggregationTrace, ReconciliationStaysExactWithZeroUnattributed) {
  workload::ensure_types_registered();
  constexpr std::uint64_t kSeeds = 40;
  constexpr std::size_t kSubscribers = 6;
  constexpr std::size_t kEvents = 60;

  std::uint64_t total_spurious = 0, total_merges = 0, merge_blamed = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    routing::OverlayConfig config;
    config.stage_counts = {1, 2, 4};
    config.seed = seed;
    config.broker.aggregate.enabled = true;
    config.trace.enabled = true;
    config.trace.sample_period = 1;
    config.trace.ring_capacity = kEvents * 16;
    routing::Overlay overlay{config};

    auto& publisher = overlay.add_publisher();
    publisher.advertise(workload::BiblioGenerator::schema());
    overlay.run();

    workload::BiblioGenerator gen{{}, seed};
    std::vector<sim::NodeId> subscriber_nodes;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      auto& sub = overlay.add_subscriber();
      sub.subscribe(gen.next_subscription(i % 3), {});
      subscriber_nodes.push_back(sub.id());
      overlay.run();
    }

    std::vector<trace::TraceId> published;
    std::map<trace::TraceId, EventImage> images;
    for (std::size_t e = 0; e < kEvents; ++e) {
      EventImage image = gen.next_event();
      const std::uint64_t id = publisher.publish(image);
      published.push_back(id);
      images.emplace(id, std::move(image));
    }
    overlay.run();

    // No false negatives, aggregated or not: the full journey oracle.
    const auto expected = [&](trace::TraceId id, sim::NodeId node) {
      const auto it = images.find(id);
      if (it == images.end()) return false;
      for (const auto& sub : overlay.subscribers()) {
        if (sub->id() != node) continue;
        for (const auto& view : sub->subscription_views())
          if (view.exact.matches(it->second, overlay.registry())) return true;
      }
      return false;
    };

    trace::Collector collector;
    collector.add_all(overlay.tracer()->spans());
    ASSERT_EQ(overlay.tracer()->stats().spans_overwritten, 0u) << "seed " << seed;
    const trace::OracleReport report = trace::verify_journeys(
        collector, published, subscriber_nodes, expected);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
    total_spurious += report.spurious_arrivals;

    std::vector<metrics::NodeLoad> loads = metrics::broker_loads(overlay);
    const auto sub_loads = metrics::subscriber_loads(overlay);
    loads.insert(loads.end(), sub_loads.begin(), sub_loads.end());
    const auto summaries =
        metrics::summarize_by_stage(loads, kEvents, kSubscribers);
    const trace::Attribution attribution = collector.attribution();
    ASSERT_EQ(attribution.total(), metrics::spurious_deliveries(summaries))
        << "seed " << seed;
    ASSERT_EQ(attribution.by_attribute.count(trace::kUnattributed), 0u)
        << "seed " << seed
        << ": aggregation produced an unattributable spurious delivery";
    for (const auto& [attr, count] : attribution.by_attribute)
      if (attr.rfind("\xE2\x8A\x94", 0) == 0) merge_blamed += count;  // "⊔"

    for (const index::AggregateStats& s : metrics::broker_aggregation(overlay))
      total_merges += s.merges;
  }
  // The sweep must exercise merging, spurious traffic, and the merge-blame
  // path itself — otherwise the zero-unattributed assertion proved nothing.
  EXPECT_GT(total_merges, 0u);
  EXPECT_GT(total_spurious, 0u);
  EXPECT_GT(merge_blamed, 0u);
}

}  // namespace
}  // namespace cake
