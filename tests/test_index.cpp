// Unit + oracle tests for the matching tables: the counting index and the
// sharded table must agree exactly with the naive Fig. 6 table on
// randomized workloads.
#include "cake/index/index.hpp"

#include <gtest/gtest.h>

#include "cake/index/sharded.hpp"

#include <algorithm>
#include <bit>
#include <thread>

#include "cake/event/event.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"

namespace cake::index {
namespace {

using event::EventImage;
using event::image_of;
using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using value::Value;
using workload::Auction;
using workload::CarAuction;
using workload::Stock;
using workload::VehicleAuction;

// Every table the system builds. One shard is the degenerate sharded
// table: every event class collides in shard 0.
struct Table {
  const char* name;
  std::unique_ptr<MatchIndex> (*make)();
};
void PrintTo(const Table& table, std::ostream* os) { *os << table.name; }

const Table kTables[] = {
    {"Naive", [] { return make_index(Engine::Naive); }},
    {"Counting", [] { return make_index(Engine::Counting); }},
    {"Sharded",
     []() -> std::unique_ptr<MatchIndex> {
       return std::make_unique<ShardedIndex>();
     }},
    {"ShardedOneShard",
     []() -> std::unique_ptr<MatchIndex> {
       return std::make_unique<ShardedIndex>(reflect::TypeRegistry::global(), 1);
     }},
};

class IndexTest : public ::testing::TestWithParam<Table> {
protected:
  void SetUp() override {
    workload::ensure_types_registered();
    index_ = GetParam().make();
  }

  std::vector<FilterId> match(const EventImage& image) {
    std::vector<FilterId> out;
    index_->match(image, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<MatchIndex> index_;
};

TEST_P(IndexTest, EmptyIndexMatchesNothing) {
  EXPECT_TRUE(match(image_of(Stock{"Foo", 1.0, 1})).empty());
  EXPECT_EQ(index_->size(), 0u);
}

TEST_P(IndexTest, SingleEqualityFilter) {
  const FilterId id = index_->add(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build());
  EXPECT_EQ(match(image_of(Stock{"Foo", 1.0, 1})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"Bar", 1.0, 1})).empty());
}

TEST_P(IndexTest, ConjunctionRequiresAllPredicates) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("symbol", Op::Eq, Value{"Foo"})
                                      .where("price", Op::Lt, Value{10.0})
                                      .build());
  EXPECT_EQ(match(image_of(Stock{"Foo", 9.0, 1})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"Foo", 11.0, 1})).empty());
  EXPECT_TRUE(match(image_of(Stock{"Bar", 9.0, 1})).empty());
}

TEST_P(IndexTest, AcceptAllFilterMatchesEverything) {
  const FilterId id = index_->add(ConjunctiveFilter::accept_all());
  EXPECT_EQ(match(image_of(Stock{"Foo", 1.0, 1})), std::vector<FilterId>{id});
  EXPECT_EQ(match(EventImage{"Ghost", {}}), std::vector<FilterId>{id});
}

TEST_P(IndexTest, SubtypeInclusiveTypeFilter) {
  const FilterId id = index_->add(FilterBuilder{"Auction", true}.build());
  EXPECT_EQ(match(image_of(CarAuction{1.0, 2, 4})), std::vector<FilterId>{id});
  EXPECT_EQ(match(image_of(Auction{"Estate", 1.0})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"Foo", 1.0, 1})).empty());
}

TEST_P(IndexTest, ExactTypeFilterRejectsSubtypes) {
  const FilterId id = index_->add(FilterBuilder{"Auction", false}.build());
  EXPECT_EQ(match(image_of(Auction{"Estate", 1.0})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(VehicleAuction{1.0, "Van", 3})).empty());
}

TEST_P(IndexTest, RemoveStopsMatching) {
  const FilterId id = index_->add(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build());
  index_->remove(id);
  EXPECT_TRUE(match(image_of(Stock{"Foo", 1.0, 1})).empty());
  EXPECT_EQ(index_->size(), 0u);
  EXPECT_EQ(index_->find(id), nullptr);
  index_->remove(id);  // idempotent
  index_->remove(12345);
}

TEST_P(IndexTest, FindReturnsStoredFilter) {
  const ConjunctiveFilter f =
      FilterBuilder{"Stock"}.where("price", Op::Gt, Value{5.0}).build();
  const FilterId id = index_->add(f);
  ASSERT_NE(index_->find(id), nullptr);
  EXPECT_EQ(*index_->find(id), f);
}

TEST_P(IndexTest, DuplicateRangeConstraintsOnOneAttribute) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("price", Op::Gt, Value{5.0})
                                      .where("price", Op::Lt, Value{10.0})
                                      .build());
  EXPECT_EQ(match(image_of(Stock{"X", 7.0, 1})), std::vector<FilterId>{id});
  EXPECT_TRUE(match(image_of(Stock{"X", 4.0, 1})).empty());
  EXPECT_TRUE(match(image_of(Stock{"X", 12.0, 1})).empty());
}

TEST_P(IndexTest, WildcardConstraintsAreTriviallySatisfied) {
  const FilterId id = index_->add(FilterBuilder{"Stock"}
                                      .where("symbol", Op::Eq, Value{"Foo"})
                                      .where("price", Op::Any)
                                      .build());
  EXPECT_EQ(match(image_of(Stock{"Foo", 1e9, 1})), std::vector<FilterId>{id});
}

TEST_P(IndexTest, ManyFiltersSelectSubset) {
  std::vector<FilterId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(index_->add(FilterBuilder{"Stock"}
                                  .where("price", Op::Lt, Value{double(i)})
                                  .build()));
  }
  const auto matched = match(image_of(Stock{"Foo", 9.5, 1}));
  // prices 10..19 are above 9.5
  std::vector<FilterId> expected(ids.begin() + 10, ids.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(matched, expected);
}

INSTANTIATE_TEST_SUITE_P(Engines, IndexTest, ::testing::ValuesIn(kTables),
                         [](const auto& info) {
                           return std::string{info.param.name};
                         });

TEST(ShardedIndexShape, ShardCountRoundsUpToAPowerOfTwo) {
  const auto& registry = reflect::TypeRegistry::global();
  EXPECT_EQ(ShardedIndex(registry, 1).shard_count(), 1u);
  EXPECT_EQ(ShardedIndex(registry, 2).shard_count(), 2u);
  EXPECT_EQ(ShardedIndex(registry, 3).shard_count(), 4u);
  EXPECT_EQ(ShardedIndex(registry, 5).shard_count(), 8u);
  EXPECT_EQ(ShardedIndex(registry, 64).shard_count(), 64u);
  EXPECT_EQ(ShardedIndex(registry, 65).shard_count(), 128u);
}

TEST(ShardedIndexShape, AutoSizeFollowsTheCoresWithinFourToSixtyFour) {
  const std::size_t count = ShardedIndex{}.shard_count();
  EXPECT_TRUE(std::has_single_bit(count)) << count;
  EXPECT_GE(count, 4u);
  EXPECT_LE(count, 64u);
  if (const unsigned cores = std::thread::hardware_concurrency(); cores != 0) {
    EXPECT_EQ(count,
              std::clamp<std::size_t>(std::bit_ceil<std::size_t>(cores), 4, 64));
  }
}

// Oracle property: every table agrees on thousands of random
// (filters, events) combinations across all workload domains.
TEST(IndexOracle, CountingAgreesWithNaiveOnRandomWorkloads) {
  workload::ensure_types_registered();
  util::Rng rng{31337};
  workload::BiblioGenerator biblio{{}, 11};
  workload::StockGenerator stocks{{}, 12};
  workload::AuctionGenerator auctions{{}, 13};

  NaiveTable naive{reflect::TypeRegistry::global()};
  CountingIndex counting{reflect::TypeRegistry::global()};
  ShardedIndex sharded{reflect::TypeRegistry::global(), 8};

  // A mixed filter population, including type-only and wildcard shapes.
  for (int i = 0; i < 150; ++i) {
    ConjunctiveFilter f;
    switch (rng.below(5)) {
      case 0: f = biblio.next_subscription(); break;
      case 1: f = biblio.next_subscription(rng.below(4)); break;
      case 2: f = stocks.next_subscription(); break;
      case 3:
        f = FilterBuilder{"Auction", true}
                .where("price", Op::Lt, Value{1000.0 + 49'000.0 * rng.uniform()})
                .build();
        break;
      case 4: f = FilterBuilder{"VehicleAuction", rng.chance(0.5)}.build(); break;
    }
    const FilterId a = naive.add(f);
    const FilterId b = counting.add(f);
    const FilterId c = sharded.add(f);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    // Churn: occasionally remove a random earlier filter from all.
    if (rng.chance(0.15)) {
      const FilterId victim = rng.below(a + 1);
      naive.remove(victim);
      counting.remove(victim);
      sharded.remove(victim);
    }
  }
  ASSERT_EQ(naive.size(), counting.size());
  ASSERT_EQ(naive.size(), sharded.size());

  std::vector<FilterId> out_naive, out_counting, out_sharded;
  for (int i = 0; i < 2000; ++i) {
    EventImage image;
    switch (rng.below(3)) {
      case 0: image = biblio.next_event(); break;
      case 1: image = image_of(stocks.next()); break;
      case 2: image = image_of(*auctions.next()); break;
    }
    naive.match(image, out_naive);
    counting.match(image, out_counting);
    sharded.match(image, out_sharded);
    std::sort(out_naive.begin(), out_naive.end());
    std::sort(out_counting.begin(), out_counting.end());
    std::sort(out_sharded.begin(), out_sharded.end());
    ASSERT_EQ(out_naive, out_counting) << "event " << image.to_string();
    ASSERT_EQ(out_naive, out_sharded) << "event " << image.to_string();
  }
}

// The output order of CountingIndex::match, as index.hpp documents it:
// LocalBus and CentralizedServer run handlers in this order, so it must not
// drift. Event attributes: product, price, kind, capacity, doors.
TEST(CountingIndexOrder, AcceptAllThenTypeOnlyThenCompletionsInAttributeOrder) {
  workload::ensure_types_registered();
  CountingIndex index{reflect::TypeRegistry::global()};
  const std::vector<ConjunctiveFilter> filters = {
      /* 0 */ FilterBuilder{"CarAuction"}.where("doors", Op::Eq, Value{5}).build(),
      /* 1 */ FilterBuilder{"Auction", true}.where("kind", Op::Eq, Value{"Car"}).build(),
      /* 2 */ ConjunctiveFilter::accept_all(),
      /* 3 */ FilterBuilder{"VehicleAuction", true}.build(),
      /* 4 */ FilterBuilder{"CarAuction"}.build(),
      /* 5 */ FilterBuilder{"Auction", true}.build(),
      /* 6 */ FilterBuilder{"CarAuction", true}.build(),
      /* 7 */ FilterBuilder{}.where("price", Op::Gt, Value{50}).build(),
      /* 8 */ FilterBuilder{}
          .where("product", Op::Eq, Value{"Vehicle"})
          .where("capacity", Op::Ge, Value{4})
          .build(),
      /* 9 */ FilterBuilder{"Auction"}.where("product", Op::Eq, Value{"Vehicle"}).build(),
      /* 10 */ ConjunctiveFilter::accept_all(),
      /* 11 */ FilterBuilder{}.where("price", Op::Eq, Value{100}).build(),
      /* 12 */ FilterBuilder{"VehicleAuction", true}.where("doors", Op::Exists).build(),
  };
  for (const ConjunctiveFilter& f : filters) index.add(f);

  std::vector<FilterId> out;
  index.match(image_of(CarAuction{100.0, 4, 5}), out);
  EXPECT_EQ(out, (std::vector<FilterId>{2, 10, 4, 6, 3, 5, 11, 7, 1, 8, 0, 12}));

  // Removing and re-adding moves a filter to the end of its list.
  index.remove(10);
  index.remove(3);
  index.remove(11);
  const FilterId readded = index.add(filters[11]);
  index.match(image_of(CarAuction{100.0, 4, 5}), out);
  EXPECT_EQ(out, (std::vector<FilterId>{2, 4, 6, 5, readded, 7, 1, 8, 0, 12}));

  // Once removed ids outnumber live ones the lists are compacted; the
  // survivors keep their order.
  for (const FilterId id : {0, 1, 2, 4, 5}) index.remove(id);
  EXPECT_EQ(index.size(), 6u);
  index.match(image_of(CarAuction{100.0, 4, 5}), out);
  EXPECT_EQ(out, (std::vector<FilterId>{6, readded, 7, 8, 12}));
}

// A random filter over the test domains, mixing every shape the counting
// index files differently: accept-all, type-only (exact and subtree, on
// registered and unregistered types), type-less attribute filters, and
// every operator with int and double spellings of one number.
ConjunctiveFilter random_shape(util::Rng& rng) {
  static const char* const kTypes[] = {"Auction", "VehicleAuction", "CarAuction",
                                       "Stock", "Ghost"};
  static const char* const kAttrs[] = {"price", "capacity", "doors", "kind",
                                       "symbol", "product", "volume"};
  static const Op kOps[] = {Op::Eq, Op::Ne,     Op::Lt,     Op::Le,  Op::Gt,
                            Op::Ge, Op::Prefix, Op::Exists, Op::Any, Op::Regex};
  const auto type = [&]() -> FilterBuilder {
    if (rng.chance(0.25)) return FilterBuilder{};
    return FilterBuilder{kTypes[rng.below(std::size(kTypes))], rng.chance(0.5)};
  };
  const auto operand = [&](Op op) -> Value {
    if (op == Op::Prefix || op == Op::Regex || rng.chance(0.2)) {
      static const char* const kText[] = {"Car", "Ca", "C.*", "Vehicle", "Foo",
                                          "(Car"};
      return Value{kText[rng.below(std::size(kText))]};
    }
    const std::int64_t n = static_cast<std::int64_t>(rng.below(6));
    return rng.chance(0.5) ? Value{n} : Value{static_cast<double>(n)};
  };
  switch (rng.below(6)) {
    case 0: return ConjunctiveFilter::accept_all();
    case 1: return type().build();
    default: {
      FilterBuilder builder = type();
      for (std::size_t i = 1 + rng.below(3); i > 0; --i) {
        const Op op = kOps[rng.below(std::size(kOps))];
        builder.where(kAttrs[rng.below(std::size(kAttrs))], op, operand(op));
      }
      return builder.build();
    }
  }
}

EventImage random_event(util::Rng& rng) {
  const auto number = [&]() -> Value {
    const std::int64_t n = static_cast<std::int64_t>(rng.below(6));
    return rng.chance(0.5) ? Value{n} : Value{static_cast<double>(n)};
  };
  switch (rng.below(5)) {
    case 0: return image_of(CarAuction{double(rng.below(6)), std::int64_t(rng.below(6)),
                                       std::int64_t(rng.below(6))});
    case 1: return image_of(VehicleAuction{double(rng.below(6)), "Car", 3});
    case 2: return image_of(Auction{"Vehicle", 1.0});
    case 3: return image_of(Stock{"Foo", double(rng.below(6)), 2});
    default: {
      // Unregistered types carry any attributes at all.
      static const char* const kGhosts[] = {"Ghost", "Phantom"};
      return EventImage{kGhosts[rng.below(2)],
                        {{"price", number()}, {"kind", Value{"Car"}}, {"doors", number()}}};
    }
  }
}

// Differential check of the counting index's separate paths (accept-all
// list, type-only lists, type test at completion, keyed postings) against
// the Fig. 6 scan, with removes followed by re-adds of the same filters.
TEST(IndexOracle, CountingAgreesWithNaiveOnEveryFilterShape) {
  workload::ensure_types_registered();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng{seed};
    NaiveTable naive{reflect::TypeRegistry::global()};
    CountingIndex counting{reflect::TypeRegistry::global()};
    std::vector<ConjunctiveFilter> added;
    std::vector<FilterId> out_naive, out_counting;
    // Odd seeds churn hard enough that removed ids outnumber live ones
    // and the counting index compacts its lists.
    const double remove_rate = seed % 2 == 1 ? 0.9 : 0.2;
    for (int step = 0; step < 120; ++step) {
      for (int r = 0; r < 2 && !added.empty() && rng.chance(remove_rate); ++r) {
        const FilterId victim = rng.below(added.size());
        naive.remove(victim);
        counting.remove(victim);
      }
      ConjunctiveFilter f = rng.chance(0.2) && !added.empty()
                                ? added[rng.below(added.size())]  // re-add
                                : random_shape(rng);
      ASSERT_EQ(naive.add(f), counting.add(f));
      added.push_back(std::move(f));
      ASSERT_EQ(naive.size(), counting.size());

      for (int e = 0; e < 4; ++e) {
        const EventImage image = random_event(rng);
        naive.match(image, out_naive);
        counting.match(image, out_counting);
        std::vector<FilterId> sorted = out_counting;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
            << "duplicate id for " << image.to_string();
        ASSERT_EQ(out_naive, sorted) << "event " << image.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace cake::index
