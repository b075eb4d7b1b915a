// Unit + property tests for conjunctive filters: matching, type-based
// subscriptions, standard form, covering (Definition 2) and event covering
// (Definition 3).
#include "cake/filter/filter.hpp"

#include <gtest/gtest.h>

#include "cake/util/rng.hpp"
#include "cake/workload/types.hpp"

namespace cake::filter {
namespace {

using event::EventImage;
using event::image_of;
using value::Value;
using workload::Auction;
using workload::CarAuction;
using workload::Stock;
using workload::VehicleAuction;

class FilterTest : public ::testing::Test {
protected:
  void SetUp() override { workload::ensure_types_registered(); }
  const reflect::TypeRegistry& registry_ = reflect::TypeRegistry::global();
};

TEST_F(FilterTest, PaperExample1) {
  const EventImage e1 = image_of(Stock{"Foo", 10.0, 32300});
  const EventImage e2 = image_of(Stock{"Bar", 15.0, 25600});
  const ConjunctiveFilter f = FilterBuilder{}
                                  .where("symbol", Op::Eq, Value{"Foo"})
                                  .where("price", Op::Gt, Value{5.0})
                                  .build();
  EXPECT_TRUE(f.matches(e1, registry_));
  EXPECT_FALSE(f.matches(e2, registry_));
}

TEST_F(FilterTest, AcceptAllMatchesEverything) {
  const ConjunctiveFilter ft = ConjunctiveFilter::accept_all();
  EXPECT_TRUE(ft.matches(image_of(Stock{"Foo", 1.0, 1}), registry_));
  EXPECT_TRUE(ft.matches(image_of(Auction{"Estate", 5.0}), registry_));
  EXPECT_TRUE(ft.matches(EventImage{"Unknown", {}}, registry_));
}

TEST_F(FilterTest, ExactTypeConstraint) {
  const ConjunctiveFilter f{TypeConstraint{"Auction", false}, {}};
  EXPECT_TRUE(f.matches(image_of(Auction{"Estate", 5.0}), registry_));
  EXPECT_FALSE(f.matches(image_of(VehicleAuction{5.0, "Van", 3}), registry_));
  EXPECT_FALSE(f.matches(image_of(Stock{"Foo", 1.0, 1}), registry_));
}

TEST_F(FilterTest, SubtypeInclusiveTypeConstraint) {
  const ConjunctiveFilter f{TypeConstraint{"Auction", true}, {}};
  EXPECT_TRUE(f.matches(image_of(Auction{"Estate", 5.0}), registry_));
  EXPECT_TRUE(f.matches(image_of(VehicleAuction{5.0, "Van", 3}), registry_));
  EXPECT_TRUE(f.matches(image_of(CarAuction{5.0, 4, 3}), registry_));
  EXPECT_FALSE(f.matches(image_of(Stock{"Foo", 1.0, 1}), registry_));
}

TEST_F(FilterTest, SubtypeFilterConstrainsInheritedAndOwnAttributes) {
  // The paper's f4: vehicle auctions, cars only, small capacity, cheap.
  const ConjunctiveFilter f4 = FilterBuilder{"Auction", true}
                                   .where("product", Op::Eq, Value{"Vehicle"})
                                   .where("kind", Op::Eq, Value{"Car"})
                                   .where("capacity", Op::Lt, Value{2000})
                                   .where("price", Op::Lt, Value{10'000.0})
                                   .build();
  EXPECT_TRUE(f4.matches(image_of(CarAuction{9000.0, 4, 5}), registry_));
  EXPECT_FALSE(f4.matches(image_of(CarAuction{19'000.0, 4, 5}), registry_));
  EXPECT_FALSE(
      f4.matches(image_of(VehicleAuction{9000.0, "Truck", 4}), registry_));
  // Plain auctions lack "kind" entirely: no match.
  EXPECT_FALSE(f4.matches(image_of(Auction{"Vehicle", 9000.0}), registry_));
}

TEST_F(FilterTest, UnknownTypeNameFallsBackToExactMatch) {
  const ConjunctiveFilter f{TypeConstraint{"Mystery", true}, {}};
  EXPECT_TRUE(f.matches(EventImage{"Mystery", {}}, registry_));
  EXPECT_FALSE(f.matches(EventImage{"Other", {}}, registry_));
}

TEST_F(FilterTest, WildcardDetection) {
  const ConjunctiveFilter f = FilterBuilder{"Stock"}
                                  .where("symbol", Op::Eq, Value{"Foo"})
                                  .where("price", Op::Any)
                                  .where("volume", Op::Any)
                                  .build();
  EXPECT_TRUE(f.has_wildcard());
  EXPECT_EQ(f.wildcard_attributes(),
            (std::vector<std::string>{"price", "volume"}));
  const ConjunctiveFilter g =
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build();
  EXPECT_FALSE(g.has_wildcard());
}

TEST_F(FilterTest, StandardFormFillsAndOrders) {
  // Constraints given out of order and missing "volume" (paper §4.4 f_x).
  const ConjunctiveFilter f = FilterBuilder{"Stock"}
                                  .where("price", Op::Lt, Value{100.0})
                                  .where("symbol", Op::Eq, Value{"DEF"})
                                  .build();
  const ConjunctiveFilter std_form =
      f.standard_form(registry_.get("Stock"));
  ASSERT_EQ(std_form.constraints().size(), 3u);
  EXPECT_EQ(std_form.constraints()[0].name, "symbol");
  EXPECT_EQ(std_form.constraints()[1].name, "price");
  EXPECT_EQ(std_form.constraints()[2].name, "volume");
  EXPECT_EQ(std_form.constraints()[2].op, Op::Any);
}

TEST_F(FilterTest, StandardFormKeepsRangePairsAndUnknownAttrs) {
  const ConjunctiveFilter f = FilterBuilder{"Stock"}
                                  .where("price", Op::Gt, Value{5.0})
                                  .where("price", Op::Lt, Value{10.0})
                                  .where("exotic", Op::Eq, Value{1})
                                  .build();
  const ConjunctiveFilter std_form = f.standard_form(registry_.get("Stock"));
  // symbol(Any), price>5, price<10, volume(Any), exotic=1
  ASSERT_EQ(std_form.constraints().size(), 5u);
  EXPECT_EQ(std_form.constraints()[1].name, "price");
  EXPECT_EQ(std_form.constraints()[2].name, "price");
  EXPECT_EQ(std_form.constraints()[4].name, "exotic");
}

TEST_F(FilterTest, StandardFormPreservesSemantics) {
  const ConjunctiveFilter f =
      FilterBuilder{"Stock"}.where("price", Op::Lt, Value{10.0}).build();
  const ConjunctiveFilter std_form = f.standard_form(registry_.get("Stock"));
  for (double price : {5.0, 15.0}) {
    const EventImage image = image_of(Stock{"Foo", price, 1});
    EXPECT_EQ(f.matches(image, registry_), std_form.matches(image, registry_));
  }
}

TEST_F(FilterTest, EncodeDecodeRoundTrip) {
  const ConjunctiveFilter f = FilterBuilder{"Auction", true}
                                  .where("kind", Op::Eq, Value{"Car"})
                                  .where("price", Op::Lt, Value{10'000.0})
                                  .where("capacity", Op::Any)
                                  .build();
  wire::Writer w;
  f.encode(w);
  wire::Reader r{w.bytes()};
  EXPECT_EQ(ConjunctiveFilter::decode(r), f);
}

TEST_F(FilterTest, ToStringPaperRendering) {
  const ConjunctiveFilter f = FilterBuilder{"Stock"}
                                  .where("symbol", Op::Eq, Value{"DEF"})
                                  .where("price", Op::Lt, Value{10.0})
                                  .build();
  EXPECT_EQ(f.to_string(),
            "(class, \"Stock\", =) (symbol, \"DEF\", =) (price, 10.0, <)");
}

TEST_F(FilterTest, HashEqualFiltersCollide) {
  const auto make = [] {
    return FilterBuilder{"Stock"}.where("price", Op::Lt, Value{10.0}).build();
  };
  EXPECT_EQ(make(), make());
  EXPECT_EQ(make().hash(), make().hash());
  const auto other =
      FilterBuilder{"Stock"}.where("price", Op::Lt, Value{11.0}).build();
  EXPECT_NE(make(), other);
}

// ---- covering (Definition 2) ----------------------------------------------

TEST_F(FilterTest, TypeConstraintCovering) {
  const TypeConstraint all{};
  const TypeConstraint auction_tree{"Auction", true};
  const TypeConstraint auction_exact{"Auction", false};
  const TypeConstraint vehicle_tree{"VehicleAuction", true};
  const TypeConstraint car_exact{"CarAuction", false};

  EXPECT_TRUE(TypeConstraint::covers(all, car_exact, registry_));
  EXPECT_FALSE(TypeConstraint::covers(car_exact, all, registry_));
  EXPECT_TRUE(TypeConstraint::covers(auction_tree, vehicle_tree, registry_));
  EXPECT_TRUE(TypeConstraint::covers(auction_tree, car_exact, registry_));
  EXPECT_TRUE(TypeConstraint::covers(auction_tree, auction_exact, registry_));
  EXPECT_FALSE(TypeConstraint::covers(auction_exact, auction_tree, registry_));
  EXPECT_FALSE(TypeConstraint::covers(vehicle_tree, auction_tree, registry_));
  EXPECT_FALSE(TypeConstraint::covers(car_exact, vehicle_tree, registry_));
  EXPECT_TRUE(TypeConstraint::covers(auction_exact, auction_exact, registry_));
}

TEST_F(FilterTest, FilterCoveringPaperExample2) {
  const ConjunctiveFilter f = FilterBuilder{}
                                  .where("symbol", Op::Eq, Value{"Foo"})
                                  .where("price", Op::Gt, Value{5.0})
                                  .build();
  const ConjunctiveFilter f1 =
      FilterBuilder{}.where("symbol", Op::Eq, Value{"Foo"}).build();
  const ConjunctiveFilter f2 =
      FilterBuilder{}.where("price", Op::Gt, Value{5.0}).build();
  const ConjunctiveFilter f3 = FilterBuilder{}
                                   .where("symbol", Op::Eq, Value{"Foo"})
                                   .where("price", Op::Ge, Value{4.5})
                                   .build();
  EXPECT_TRUE(covers(f1, f, registry_));
  EXPECT_TRUE(covers(f2, f, registry_));
  EXPECT_TRUE(covers(f3, f, registry_));
  EXPECT_FALSE(covers(f, f1, registry_));
  EXPECT_FALSE(covers(f, f2, registry_));
}

TEST_F(FilterTest, AcceptAllCoversEverythingAndIsCoveredByNothingStricter) {
  const ConjunctiveFilter ft = ConjunctiveFilter::accept_all();
  const ConjunctiveFilter f =
      FilterBuilder{"Stock"}.where("price", Op::Lt, Value{10.0}).build();
  EXPECT_TRUE(covers(ft, f, registry_));
  EXPECT_TRUE(covers(ft, ft, registry_));
  EXPECT_FALSE(covers(f, ft, registry_));
}

TEST_F(FilterTest, WildcardConstraintsAreIgnoredInCovering) {
  const ConjunctiveFilter weak = FilterBuilder{"Stock"}
                                     .where("symbol", Op::Eq, Value{"DEF"})
                                     .where("price", Op::Any)
                                     .build();
  const ConjunctiveFilter strong = FilterBuilder{"Stock"}
                                       .where("symbol", Op::Eq, Value{"DEF"})
                                       .where("price", Op::Lt, Value{10.0})
                                       .build();
  EXPECT_TRUE(covers(weak, strong, registry_));
  EXPECT_FALSE(covers(strong, weak, registry_));
}

TEST_F(FilterTest, CoveringAcrossTypeHierarchy) {
  const ConjunctiveFilter weak = FilterBuilder{"Auction", true}
                                     .where("price", Op::Lt, Value{20'000.0})
                                     .build();
  const ConjunctiveFilter strong = FilterBuilder{"CarAuction", true}
                                       .where("price", Op::Lt, Value{10'000.0})
                                       .where("doors", Op::Eq, Value{5})
                                       .build();
  EXPECT_TRUE(covers(weak, strong, registry_));
  EXPECT_FALSE(covers(strong, weak, registry_));
}

// Property: syntactic covering is semantically sound on random workloads.
TEST_F(FilterTest, CoveringSoundnessProperty) {
  util::Rng rng{424242};
  const char* symbols[] = {"Foo", "Bar", "Baz"};
  auto random_filter = [&] {
    FilterBuilder b{"Stock"};
    if (rng.chance(0.7))
      b.where("symbol", Op::Eq, Value{symbols[rng.below(3)]});
    if (rng.chance(0.7)) {
      static const Op ops[] = {Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq};
      b.where("price", ops[rng.below(5)],
              Value{static_cast<double>(rng.between(0, 20))});
    }
    return b.build();
  };
  int covering_pairs = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const ConjunctiveFilter weak = random_filter();
    const ConjunctiveFilter strong = random_filter();
    if (!covers(weak, strong, registry_)) continue;
    ++covering_pairs;
    for (int probe = 0; probe < 30; ++probe) {
      const EventImage image = image_of(
          Stock{symbols[rng.below(3)], static_cast<double>(rng.between(0, 20)),
                rng.between(1, 100)});
      if (strong.matches(image, registry_)) {
        ASSERT_TRUE(weak.matches(image, registry_))
            << weak.to_string() << " !covers " << strong.to_string() << " at "
            << image.to_string();
      }
    }
  }
  EXPECT_GT(covering_pairs, 50);
}

// ---- event covering (Definition 3) -----------------------------------------

TEST_F(FilterTest, EventCoveringPaperExample3) {
  const EventImage e1 = image_of(Stock{"Foo", 10.0, 32300});
  const EventImage e1_weak = e1.project({"symbol", "price"});
  const ConjunctiveFilter f = FilterBuilder{}
                                  .where("symbol", Op::Eq, Value{"Foo"})
                                  .where("price", Op::Gt, Value{5.0})
                                  .build();
  EXPECT_TRUE(event_covers(e1_weak, e1, f, registry_));

  // With the existence filter "(volume, ∃)" the projected event does NOT
  // cover the original (the paper's closing remark of §3.1).
  const ConjunctiveFilter exists_f =
      FilterBuilder{}.where("volume", Op::Exists).build();
  EXPECT_FALSE(event_covers(e1_weak, e1, exists_f, registry_));
}

}  // namespace
}  // namespace cake::filter
