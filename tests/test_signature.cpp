// The signature prefilter (DESIGN.md §9): one 64-bit word per filter and
// per event image, where a filter can match an image only if its word is a
// subset of the image's. These tests pin the soundness rule over every
// operator and value kind, the "prunes nothing" default of an EventMsg not
// built by decode, and the subscriber's exact stage against a plain
// `ConjunctiveFilter::matches` walk.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cake/filter/filter.hpp"
#include "cake/routing/endpoints.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/runtime/sim_transport.hpp"
#include "cake/sim/sim.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/types.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using filter::signature;
using value::Value;

const reflect::TypeRegistry& reg() { return reflect::TypeRegistry::global(); }

bool subset(std::uint64_t filter_word, std::uint64_t image_word) {
  return (filter_word & ~image_word) == 0;
}

// Every value kind, with the pairs that compare equal across kinds or bit
// patterns (1 and 1.0, 0.0 and -0.0) and the ones that never equal
// themselves (NaN).
Value random_value(util::Rng& rng) {
  static const char* strings[] = {"", "a", "ab", "PODC", "SOSP"};
  switch (rng.below(10)) {
    case 0: return Value{};
    case 1: return Value{rng.chance(0.5)};
    case 2: return Value{rng.between(-1, 2)};
    case 3: return Value{static_cast<double>(rng.between(-1, 2))};
    case 4: return Value{rng.chance(0.5) ? 0.0 : -0.0};
    case 5: return Value{std::numeric_limits<double>::quiet_NaN()};
    case 6: return Value{0.5};
    default: return Value{strings[rng.below(std::size(strings))]};
  }
}

const char* random_name(util::Rng& rng) {
  static const char* names[] = {"a", "b", "c", "price"};
  return names[rng.below(std::size(names))];
}

const char* random_type(util::Rng& rng) {
  static const char* types[] = {"Auction", "VehicleAuction", "CarAuction",
                                "Stock", "Mystery"};
  return types[rng.below(std::size(types))];
}

// 0–5 attributes over four names: some absent, some repeated.
EventImage random_image(util::Rng& rng) {
  std::vector<event::ImageAttribute> attributes;
  const std::uint64_t n = rng.below(6);
  for (std::uint64_t i = 0; i < n; ++i)
    attributes.emplace_back(random_name(rng), random_value(rng));
  return EventImage{random_type(rng), std::move(attributes)};
}

ConjunctiveFilter random_filter(util::Rng& rng) {
  static const Op ops[] = {Op::Eq, Op::Eq,     Op::Eq,     Op::Ne,
                           Op::Lt, Op::Le,     Op::Gt,     Op::Ge,
                           Op::Prefix, Op::Exists, Op::Any, Op::Regex};
  static const char* patterns[] = {"a.*", "PODC|SOSP", "(", ""};
  FilterBuilder b = rng.chance(0.4) ? FilterBuilder{}
                                    : FilterBuilder{random_type(rng), rng.chance(0.5)};
  const std::uint64_t n = rng.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Op op = ops[rng.below(std::size(ops))];
    b.where(random_name(rng), op,
            op == Op::Regex ? Value{patterns[rng.below(std::size(patterns))]}
                            : random_value(rng));
  }
  return b.build();
}

bool has_eq(const ConjunctiveFilter& f) {
  for (const auto& c : f.constraints())
    if (c.op == Op::Eq) return true;
  return false;
}

TEST(Signature, MatchImpliesSubsetOverRandomFiltersAndImages) {
  workload::ensure_types_registered();
  util::Rng rng{2323};
  std::vector<EventImage> images;
  for (int i = 0; i < 400; ++i) images.push_back(random_image(rng));
  std::uint64_t eq_matches = 0;
  std::uint64_t pruned = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const ConjunctiveFilter f = random_filter(rng);
    const std::uint64_t word = signature(f);
    for (const EventImage& image : images) {
      const bool passes = subset(word, signature(image));
      if (f.matches(image, reg())) {
        EXPECT_TRUE(passes) << f.to_string() << " matches " << image.to_string()
                            << " but its signature prunes it";
        if (has_eq(f)) ++eq_matches;
      } else if (!passes) {
        ++pruned;
      }
    }
  }
  // The draw must exercise both sides: matches the rule has to keep, and
  // misses the prefilter actually removes.
  EXPECT_GT(eq_matches, 200u);
  EXPECT_GT(pruned, 10'000u);
}

TEST(Signature, NumericOperandsShareTheirBitAcrossKinds) {
  const auto eq = [](Value v) {
    return signature(FilterBuilder{}.where("price", Op::Eq, std::move(v)).build());
  };
  EXPECT_EQ(eq(Value{1}), eq(Value{1.0}));
  EXPECT_EQ(eq(Value{0}), eq(Value{0.0}));
  EXPECT_EQ(eq(Value{0.0}), eq(Value{-0.0}));
  EXPECT_EQ(std::popcount(eq(Value{1})), 1);

  const ConjunctiveFilter one = FilterBuilder{}.where("price", Op::Eq, Value{1}).build();
  const EventImage as_double{"Stock", {{"price", Value{1.0}}}};
  ASSERT_TRUE(one.matches(as_double, reg()));
  EXPECT_TRUE(subset(signature(one), signature(as_double)));
  const ConjunctiveFilter neg_zero =
      FilterBuilder{}.where("price", Op::Eq, Value{-0.0}).build();
  const EventImage pos_zero{"Stock", {{"price", Value{0.0}}}};
  ASSERT_TRUE(neg_zero.matches(pos_zero, reg()));
  EXPECT_TRUE(subset(signature(neg_zero), signature(pos_zero)));
}

TEST(Signature, NullBoolAndNanFollowEquality) {
  const ConjunctiveFilter null_eq = FilterBuilder{}.where("a", Op::Eq, Value{}).build();
  const EventImage null_image{"Stock", {{"a", Value{}}}};
  ASSERT_TRUE(null_eq.matches(null_image, reg()));
  EXPECT_TRUE(subset(signature(null_eq), signature(null_image)));

  const ConjunctiveFilter yes = FilterBuilder{}.where("a", Op::Eq, Value{true}).build();
  const EventImage true_image{"Stock", {{"a", Value{true}}}};
  ASSERT_TRUE(yes.matches(true_image, reg()));
  EXPECT_TRUE(subset(signature(yes), signature(true_image)));

  // NaN equals nothing, itself included: its bit may prune freely.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ConjunctiveFilter nan_eq = FilterBuilder{}.where("a", Op::Eq, Value{nan}).build();
  EXPECT_FALSE(nan_eq.matches(EventImage{"Stock", {{"a", Value{nan}}}}, reg()));
  EXPECT_EQ(std::popcount(signature(nan_eq)), 1);
}

TEST(Signature, OnlyEqualityConstraintsSetBits) {
  for (const Op op : {Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Prefix,
                      Op::Exists, Op::Any, Op::Regex}) {
    EXPECT_EQ(signature(FilterBuilder{"Publication"}
                            .where("conference", op, Value{"PODC|SOSP"})
                            .build()),
              0u)
        << filter::to_string(op);
  }
  // The type test, subtype-inclusive or not, sets none either.
  EXPECT_EQ(signature(FilterBuilder{"Auction", true}.build()), 0u);
  EXPECT_EQ(signature(ConjunctiveFilter::accept_all()), 0u);
  const ConjunctiveFilter broad =
      FilterBuilder{"Auction", true}.where("price", Op::Eq, Value{10}).build();
  EXPECT_EQ(signature(broad),
            signature(FilterBuilder{}.where("price", Op::Eq, Value{10.0}).build()));
}

TEST(Signature, ImageSetsOneBitPerAttributeDuplicatesIncluded) {
  const EventImage image{"Stock",
                         {{"a", Value{1}}, {"a", Value{2}}, {"b", Value{"x"}}}};
  const std::uint64_t word = signature(image);
  EXPECT_LE(std::popcount(word), 3);
  for (const auto& attr : image.attributes()) {
    const std::uint64_t bit = signature(
        FilterBuilder{}.where(std::string{attr.name}, Op::Eq, attr.value).build());
    EXPECT_TRUE(subset(bit, word)) << attr.name;
  }
  EXPECT_EQ(signature(EventImage{"Stock", {}}), 0u);
}

TEST(Signature, EventMsgDefaultPrunesNothingAndDecodeFillsIt) {
  EXPECT_EQ(routing::EventMsg{}.signature, ~std::uint64_t{0});
  util::Rng rng{77};
  for (int i = 0; i < 500; ++i)
    EXPECT_TRUE(subset(signature(random_filter(rng)), routing::EventMsg{}.signature));

  const EventImage image{"Publication",
                         {{"year", Value{2002}}, {"conference", Value{"ICDCS"}}}};
  const auto decoded = std::get<routing::EventMsg>(
      routing::decode(routing::encode(routing::EventMsg{image})));
  EXPECT_EQ(decoded.signature, signature(image));
  const sim::Network::Payload frame = routing::encode_event_frame(image, 1, 2, 0);
  EXPECT_EQ(routing::decode_event_once(frame).signature, signature(image));
}

// ---- the subscriber's exact stage against a plain matches() walk ----------

Value publication_value(util::Rng& rng, int attribute) {
  static const char* conferences[] = {"ICDCS", "PODC", "SOSP"};
  static const char* authors[] = {"Eugster", "Lamport", "Guerraoui"};
  switch (attribute) {
    case 0: {
      const std::int64_t year = rng.between(1999, 2003);
      return rng.chance(0.3) ? Value{static_cast<double>(year)} : Value{year};
    }
    case 1: return Value{conferences[rng.below(3)]};
    case 2: return Value{authors[rng.below(3)]};
    default: return Value{rng.chance(0.5) ? "Cake" : "Tea"};
  }
}

const char* publication_attribute(int attribute) {
  static const char* names[] = {"year", "conference", "author", "title"};
  return names[attribute];
}

ConjunctiveFilter random_publication_filter(util::Rng& rng) {
  static const Op ops[] = {Op::Eq, Op::Eq, Op::Eq, Op::Ne, Op::Lt,
                           Op::Prefix, Op::Exists, Op::Regex};
  FilterBuilder b = rng.chance(0.9) ? FilterBuilder{"Publication"} : FilterBuilder{};
  const std::uint64_t n = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    const int attribute = static_cast<int>(rng.below(4));
    const Op op = ops[rng.below(std::size(ops))];
    b.where(publication_attribute(attribute), op,
            op == Op::Regex ? Value{"PODC|SOSP"} : publication_value(rng, attribute));
  }
  return b.build();
}

EventImage random_publication(util::Rng& rng) {
  std::vector<event::ImageAttribute> attributes;
  for (int attribute = 0; attribute < 4; ++attribute) {
    if (rng.chance(0.1)) continue;  // absent
    attributes.emplace_back(publication_attribute(attribute),
                            publication_value(rng, attribute));
  }
  return EventImage{"Publication", std::move(attributes)};
}

TEST(Signature, SubscriberExactStageAgreesWithAPlainMatchesWalk) {
  workload::ensure_types_registered();
  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};
  routing::SubscriberConfig config;
  config.auto_renew = false;
  routing::SubscriberNode sub{2, 1, network, transport, reg(), config};
  sub.start();

  // One reference row per table entry, in token order: the filter as given,
  // its local predicate, its handler id and its composite group.
  struct Row {
    ConjunctiveFilter filter;
    routing::SubscriberNode::LocalPredicate local;
    int handler = 0;
    int group = 0;
  };
  std::vector<Row> rows;
  std::vector<std::pair<int, int>> calls;  // (event, handler), in call order
  std::uint64_t predicate_calls = 0;
  int current_event = 0;
  const auto handler_for = [&calls, &current_event](int id) {
    return [&calls, &current_event, id](const EventImage&) {
      calls.emplace_back(current_event, id);
    };
  };
  // Stateful, but a function of the image: counts its calls and vetoes
  // events whose title is "Tea".
  const routing::SubscriberNode::LocalPredicate no_tea =
      [&predicate_calls](const EventImage& e) {
        ++predicate_calls;
        const Value* title = e.find("title");
        return title == nullptr || !(*title == Value{"Tea"});
      };

  util::Rng rng{4242};
  int next_handler = 1;
  for (int i = 0; i < 24; ++i) {
    const ConjunctiveFilter f = random_publication_filter(rng);
    const bool local = rng.chance(0.25);
    sub.subscribe(f, handler_for(next_handler),
                  local ? no_tea : routing::SubscriberNode::LocalPredicate{});
    rows.push_back({f, local ? no_tea : nullptr, next_handler++, 0});
    if (i == 10) {
      // A composite of three disjuncts, one handler.
      std::vector<ConjunctiveFilter> disjuncts;
      for (int d = 0; d < 3; ++d) disjuncts.push_back(random_publication_filter(rng));
      sub.subscribe_any(disjuncts, handler_for(next_handler), no_tea);
      for (const auto& d : disjuncts) rows.push_back({d, no_tea, next_handler, 1});
      ++next_handler;
    }
  }
  scheduler.run();
  ASSERT_EQ(sub.subscriptions(), rows.size());

  std::vector<std::pair<int, int>> expected;
  std::uint64_t expected_predicate_calls = 0;
  std::uint64_t expected_delivered = 0;
  constexpr int kEvents = 3000;
  for (int n = 0; n < kEvents; ++n) {
    const EventImage image = random_publication(rng);
    bool delivered = false;
    int fired_group = 0;
    for (const Row& row : rows) {
      if (!row.filter.matches(image, reg())) continue;
      if (row.local) {
        ++expected_predicate_calls;
        const Value* title = image.find("title");
        if (title != nullptr && *title == Value{"Tea"}) continue;
      }
      delivered = true;
      if (row.group != 0) {
        if (row.group == fired_group) continue;
        fired_group = row.group;
      }
      expected.emplace_back(n, row.handler);
    }
    if (delivered) ++expected_delivered;

    current_event = n;
    network.send(1, 2,
                 routing::encode_event_frame(image, 0, (std::uint64_t{1} << 32) | (n + 1), 0));
    scheduler.run();
  }
  EXPECT_EQ(calls, expected);
  EXPECT_EQ(predicate_calls, expected_predicate_calls);
  EXPECT_EQ(sub.stats().events_received, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(sub.stats().events_delivered, expected_delivered);
  EXPECT_GT(expected_delivered, kEvents / 10u);
  EXPECT_LT(expected_delivered, static_cast<std::uint64_t>(kEvents));
}

}  // namespace
}  // namespace cake
