// Cross-cutting property tests: algebraic laws of the covering relation
// and weakening pipeline on randomized filters, plus whole-system safety
// under every matching engine.
#include <gtest/gtest.h>

#include <tuple>

#include "cake/routing/overlay.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using value::Value;

const reflect::TypeRegistry& reg() { return reflect::TypeRegistry::global(); }

ConjunctiveFilter random_filter(util::Rng& rng) {
  static const char* symbols[] = {"AA", "AB", "B", "C"};
  static const Op ops[] = {Op::Eq, Op::Ne,     Op::Lt,  Op::Le, Op::Gt,
                           Op::Ge, Op::Prefix, Op::Any, Op::Exists};
  FilterBuilder b{rng.chance(0.8) ? "Stock" : "", rng.chance(0.5)};
  if (rng.chance(0.8)) {
    b.where("symbol", rng.chance(0.6) ? Op::Eq : Op::Prefix,
            Value{symbols[rng.below(4)]});
  }
  if (rng.chance(0.8)) {
    b.where("price", ops[rng.below(std::size(ops))],
            Value{static_cast<double>(rng.between(0, 10))});
  }
  return b.build();
}

// Covering is reflexive on everything, and transitive: the guarantees the
// subscription-placement search and the collapse machinery lean on.
TEST(CoveringLaws, Reflexive) {
  workload::ensure_types_registered();
  util::Rng rng{808};
  for (int trial = 0; trial < 2000; ++trial) {
    const ConjunctiveFilter f = random_filter(rng);
    EXPECT_TRUE(covers(f, f, reg())) << f.to_string();
  }
}

TEST(CoveringLaws, Transitive) {
  workload::ensure_types_registered();
  util::Rng rng{809};
  int chains = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const ConjunctiveFilter a = random_filter(rng);
    const ConjunctiveFilter b = random_filter(rng);
    const ConjunctiveFilter c = random_filter(rng);
    if (!covers(a, b, reg()) || !covers(b, c, reg())) continue;
    ++chains;
    EXPECT_TRUE(covers(a, c, reg()))
        << a.to_string() << " ⊒ " << b.to_string() << " ⊒ " << c.to_string();
  }
  EXPECT_GT(chains, 50);  // the sweep must actually find chains
}

// Weakening is idempotent per stage and monotone across stages.
TEST(WeakenLaws, IdempotentPerStage) {
  workload::ensure_types_registered();
  workload::BiblioGenerator gen{{}, 810};
  const auto schema = workload::BiblioGenerator::schema();
  for (int trial = 0; trial < 300; ++trial) {
    const ConjunctiveFilter f = gen.next_subscription(trial % 4);
    for (std::size_t stage = 0; stage < schema.stages(); ++stage) {
      const ConjunctiveFilter once = weaken::weaken_filter(f, schema, stage);
      const ConjunctiveFilter twice = weaken::weaken_filter(once, schema, stage);
      EXPECT_EQ(once, twice) << "stage " << stage;
    }
  }
}

TEST(WeakenLaws, StandardFormIsIdempotent) {
  workload::ensure_types_registered();
  workload::BiblioGenerator gen{{}, 811};
  const auto& type = reg().get("Publication");
  for (int trial = 0; trial < 300; ++trial) {
    const ConjunctiveFilter f = gen.next_subscription(trial % 4);
    const ConjunctiveFilter once = f.standard_form(type);
    EXPECT_EQ(once, once.standard_form(type));
  }
}

// The end-to-end safety property must hold under every matching engine,
// with and without aggregation. An aggregated table matches its
// representatives on the counting index whatever `engine` says.
class EngineSafety
    : public ::testing::TestWithParam<std::tuple<index::Engine, bool>> {};

TEST_P(EngineSafety, DeliveredSetEqualsOracleSet) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 3, 9};
  config.broker.engine = std::get<0>(GetParam());
  config.broker.aggregate.enabled = std::get<1>(GetParam());
  routing::Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema());
  overlay.run();

  workload::BiblioGenerator gen{{}, 812};
  constexpr int kSubs = 25;
  std::vector<ConjunctiveFilter> filters;
  std::vector<int> received(kSubs, 0), expected(kSubs, 0);
  for (int i = 0; i < kSubs; ++i) {
    filters.push_back(gen.next_subscription(i % 3));
    overlay.add_subscriber().subscribe(
        filters[i], [&received, i](const EventImage&) { ++received[i]; });
  }
  overlay.run();
  for (int e = 0; e < 400; ++e) {
    const EventImage image = gen.next_event();
    for (int i = 0; i < kSubs; ++i)
      if (filters[i].matches(image, reg())) ++expected[i];
    pub.publish(image);
  }
  overlay.run();
  EXPECT_EQ(received, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineSafety,
    ::testing::Combine(::testing::Values(index::Engine::Naive,
                                         index::Engine::Counting),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name{std::get<0>(info.param) == index::Engine::Naive
                           ? "Naive"
                           : "Counting"};
      if (std::get<1>(info.param)) name.append("Aggregated");
      return name;
    });

// Re-advertising an event class updates the weakening of NEW subscriptions
// without breaking live ones.
TEST(Advertisement, ReAdvertiseChangesWeakeningForNewSubscriptions) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 2};
  routing::Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema(3));
  overlay.run();

  auto& early = overlay.add_subscriber();
  int early_count = 0, late_count = 0;
  workload::BiblioGenerator gen{{}, 813};
  const ConjunctiveFilter f = gen.next_subscription();
  early.subscribe(f, [&](const EventImage&) { ++early_count; });
  overlay.run();

  // New schema: weaken nothing anywhere (all four attributes everywhere).
  pub.advertise(weaken::StageSchema{
      "Publication",
      {{"year", "conference", "author", "title"},
       {"year", "conference", "author", "title"},
       {"year", "conference", "author", "title"}}});
  overlay.run();

  auto& late = overlay.add_subscriber();
  late.subscribe(f, [&](const EventImage&) { ++late_count; });
  overlay.run();

  int expected = 0;
  for (int e = 0; e < 300; ++e) {
    const EventImage image = gen.next_event();
    if (f.matches(image, reg())) ++expected;
    pub.publish(image);
  }
  overlay.run();
  EXPECT_EQ(early_count, expected);
  EXPECT_EQ(late_count, expected);
}

}  // namespace
}  // namespace cake
