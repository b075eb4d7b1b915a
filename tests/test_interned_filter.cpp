// Differential tests for interned-name matching: filters and images carry
// type and attribute names as interned symbols and match by id. A
// string-comparing reference evaluator, local to this file, is the
// specification they are checked against — over random filters and
// images, names first interned by the wire decoder, attributes the image
// lacks, the accept-all type, subtype-inclusive constraints over a
// registered hierarchy, and event types no registry knows.
#include "cake/filter/filter.hpp"

#include <gtest/gtest.h>

#include <string>
#include <typeindex>
#include <vector>

#include "cake/util/rng.hpp"
#include "cake/workload/types.hpp"

namespace cake::filter {
namespace {

using event::EventImage;
using event::ImageAttribute;
using value::Value;

// ---- the reference: names compared as text ---------------------------------

bool ref_type_matches(const TypeConstraint& t, std::string_view event_type,
                      const reflect::TypeRegistry& registry) {
  const std::string name{t.name.text};
  if (name.empty() || name == event_type) return true;
  if (!t.include_subtypes) return false;
  const reflect::TypeInfo* event_info = registry.find(event_type);
  const reflect::TypeInfo* base = registry.find(std::string_view{name});
  return event_info != nullptr && base != nullptr &&
         event_info->conforms_to(*base);
}

bool ref_matches(const ConjunctiveFilter& f, const EventImage& image,
                 const reflect::TypeRegistry& registry) {
  if (!ref_type_matches(f.type(), image.type_name(), registry)) return false;
  for (const AttributeConstraint& c : f.constraints()) {
    const std::string name{c.name.text};
    const Value* found = nullptr;
    for (const ImageAttribute& attr : image.attributes()) {
      if (std::string{attr.name} == name) {
        found = &attr.value;
        break;
      }
    }
    if (found == nullptr) {
      if (c.op != Op::Any) return false;
      continue;
    }
    if (!applies(c.op, *found, c.operand)) return false;
  }
  return true;
}

// ---- random filters and images ---------------------------------------------

// Registered types, the accept-all name, and names no registry holds.
const std::vector<std::string> kTypes = {
    "Stock", "Auction", "VehicleAuction", "CarAuction", "Publication",
    "",      "Mystery", "Ghost"};
// Registered attribute names plus ones no type declares.
const std::vector<std::string> kAttributes = {
    "symbol", "price", "volume", "product", "kind",
    "capacity", "doors", "year", "author", "ghost"};
const std::vector<Op> kOps = {Op::Eq, Op::Ne,     Op::Lt,     Op::Le,
                              Op::Gt, Op::Ge,     Op::Prefix, Op::Exists,
                              Op::Any, Op::Regex};

Value random_value(util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return Value{static_cast<std::int64_t>(rng.below(6))};
    case 1: return Value{static_cast<double>(rng.below(6)) + 0.5};
    case 2: return Value{std::string{"ab"}.substr(0, rng.below(3))};
    default: return Value{std::string{"a.*"}};
  }
}

template <class T>
const T& pick(util::Rng& rng, const std::vector<T>& from) {
  return from[rng.below(from.size())];
}

// Built from std::string names, the literal path: each name is interned
// where the aggregate is initialised.
ConjunctiveFilter random_filter(util::Rng& rng) {
  std::vector<AttributeConstraint> constraints;
  const std::size_t n = rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name = pick(rng, kAttributes);
    constraints.push_back(AttributeConstraint{name, pick(rng, kOps),
                                              random_value(rng)});
  }
  const std::string type = pick(rng, kTypes);
  return ConjunctiveFilter{TypeConstraint{type, rng.below(2) == 0},
                           std::move(constraints)};
}

EventImage random_image(util::Rng& rng) {
  std::vector<ImageAttribute> attributes;
  for (const std::string& name : kAttributes) {
    if (rng.below(2) == 0) attributes.emplace_back(name, random_value(rng));
  }
  return EventImage{pick(rng, kTypes), std::move(attributes)};
}

ConjunctiveFilter round_trip(const ConjunctiveFilter& f) {
  wire::Writer w;
  f.encode(w);
  wire::Reader r{w.bytes()};
  return ConjunctiveFilter::decode(r);
}

class InternedFilterTest : public ::testing::Test {
protected:
  void SetUp() override { workload::ensure_types_registered(); }
  const reflect::TypeRegistry& registry_ = reflect::TypeRegistry::global();
};

TEST_F(InternedFilterTest, RandomFiltersMatchLikeTheStringReference) {
  util::Rng rng{20};
  std::size_t matched = 0;
  for (int i = 0; i < 400; ++i) {
    const ConjunctiveFilter literal = random_filter(rng);
    const ConjunctiveFilter decoded = round_trip(literal);
    for (int j = 0; j < 20; ++j) {
      const EventImage image = random_image(rng);
      const bool expected = ref_matches(literal, image, registry_);
      ASSERT_EQ(literal.matches(image, registry_), expected)
          << literal.to_string() << " vs " << image.to_string();
      ASSERT_EQ(decoded.matches(image, registry_), expected)
          << decoded.to_string() << " vs " << image.to_string();
      matched += expected ? 1 : 0;
    }
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(matched, 200u);
  EXPECT_LT(matched, 7800u);
}

TEST_F(InternedFilterTest, NamesFirstInternedByDecodeMatch) {
  // Hand-written wire bytes, so the decoder is the first to see the names.
  // The suffix keeps them fresh: the table only grows, so no name carrying
  // the current size has been interned yet.
  const std::string fresh = std::string{"#"}.append(std::to_string(symbol::size()));
  const std::string type = "DecodedOnlyType" + fresh;
  const std::string attr = "decoded-only-attribute" + fresh;
  const std::string spare = "decoded-only-absent" + fresh;
  wire::Writer w;
  w.string(type);
  w.u8(0);
  w.varint(2);
  w.string(attr);
  w.u8(static_cast<std::uint8_t>(Op::Ge));
  w.value(Value{3});
  w.string(spare);
  w.u8(static_cast<std::uint8_t>(Op::Any));
  w.value(Value{});

  const std::size_t before = symbol::size();
  wire::Reader r{w.bytes()};
  const ConjunctiveFilter f = ConjunctiveFilter::decode(r);
  EXPECT_EQ(symbol::size(), before + 3) << "decode interns each new name";
  EXPECT_EQ(f.type().name.text, type);
  EXPECT_EQ(f.constraints()[0].name.text, attr);

  const EventImage hit{type, {{attr, Value{4}}}};
  const EventImage low{type, {{attr, Value{2}}}};
  const EventImage other_type{"Stock", {{attr, Value{4}}}};
  for (const EventImage* image : {&hit, &low, &other_type}) {
    EXPECT_EQ(f.matches(*image, registry_), ref_matches(f, *image, registry_))
        << image->to_string();
  }
  EXPECT_TRUE(f.matches(hit, registry_));
  EXPECT_FALSE(f.matches(low, registry_));
  EXPECT_FALSE(f.matches(other_type, registry_));
  EXPECT_EQ(f, (ConjunctiveFilter{TypeConstraint{type, false},
                                  {{attr, Op::Ge, Value{3}},
                                   {spare, Op::Any, {}}}}));
}

TEST_F(InternedFilterTest, AbsentAttributePassesOnlyTheWildcard) {
  const EventImage image{"Stock", {{"price", Value{1.0}}}};
  for (const Op op : kOps) {
    const ConjunctiveFilter f{TypeConstraint{"Stock", false},
                              {{"volume", op, Value{1}}}};
    EXPECT_EQ(f.matches(image, registry_), op == Op::Any) << f.to_string();
    EXPECT_EQ(ref_matches(f, image, registry_), op == Op::Any);
  }
}

TEST_F(InternedFilterTest, AcceptAllTypeMatchesRegisteredUnknownAndEmpty) {
  const ConjunctiveFilter all = ConjunctiveFilter::accept_all();
  const ConjunctiveFilter from_literal{TypeConstraint{"", false}, {}};
  EXPECT_EQ(all, from_literal);
  EXPECT_TRUE(all.type().accepts_all());
  EXPECT_TRUE(round_trip(all).type().accepts_all());
  for (const std::string& type : kTypes) {
    const EventImage image{type, {}};
    EXPECT_TRUE(all.matches(image, registry_)) << type;
    EXPECT_TRUE(from_literal.matches(image, registry_)) << type;
  }
}

TEST_F(InternedFilterTest, SubtypesFollowTheRegistryPassedIn) {
  // A private hierarchy: only this registry knows Base <: Derived <: Leaf.
  reflect::TypeRegistry local;
  const reflect::TypeInfo& base =
      local.add("InternedBase", nullptr, std::type_index{typeid(int)}, {});
  const reflect::TypeInfo& derived =
      local.add("InternedDerived", &base, std::type_index{typeid(long)}, {});
  local.add("InternedLeaf", &derived, std::type_index{typeid(short)}, {});

  const ConjunctiveFilter broad{TypeConstraint{"InternedDerived", true}, {}};
  const ConjunctiveFilter exact{TypeConstraint{"InternedDerived", false}, {}};
  const struct {
    const char* type;
    bool broad;
    bool exact;
  } cases[] = {{"InternedBase", false, false},
               {"InternedDerived", true, true},
               {"InternedLeaf", true, false},
               {"Stock", false, false}};
  for (const auto& c : cases) {
    const EventImage image{c.type, {}};
    EXPECT_EQ(broad.matches(image, local), c.broad) << c.type;
    EXPECT_EQ(exact.matches(image, local), c.exact) << c.type;
    EXPECT_EQ(ref_matches(broad, image, local), c.broad) << c.type;
    // The global registry never heard of the hierarchy: only the exact
    // name passes there.
    EXPECT_EQ(broad.matches(image, registry_),
              std::string_view{c.type} == "InternedDerived")
        << c.type;
  }
}

TEST_F(InternedFilterTest, UnregisteredEventTypeMatchesOnlyItsOwnName) {
  const EventImage image{"Mystery", {{"price", Value{1.0}}}};
  for (const bool subtypes : {false, true}) {
    EXPECT_TRUE((ConjunctiveFilter{TypeConstraint{"Mystery", subtypes}, {}}
                     .matches(image, registry_)));
    EXPECT_FALSE((ConjunctiveFilter{TypeConstraint{"Auction", subtypes}, {}}
                      .matches(image, registry_)));
    EXPECT_FALSE((ConjunctiveFilter{TypeConstraint{"Ghost", subtypes}, {}}
                      .matches(image, registry_)));
  }
}

TEST_F(InternedFilterTest, LiteralAndDecodedFiltersAgreeOnEveryRelation) {
  util::Rng rng{21};
  for (int i = 0; i < 300; ++i) {
    const ConjunctiveFilter a = random_filter(rng);
    const ConjunctiveFilter b = random_filter(rng);
    const ConjunctiveFilter a_wire = round_trip(a);
    const ConjunctiveFilter b_wire = round_trip(b);
    ASSERT_EQ(a, a_wire) << a.to_string();
    ASSERT_EQ(a.hash(), a_wire.hash()) << a.to_string();
    ASSERT_EQ(a == b, a_wire == b_wire);
    const bool covers_ab = covers(a, b, registry_);
    ASSERT_EQ(covers(a_wire, b_wire, registry_), covers_ab)
        << a.to_string() << " / " << b.to_string();
    ASSERT_EQ(covers(a, b_wire, registry_), covers_ab);
    ASSERT_EQ(covers(a_wire, b, registry_), covers_ab);
    for (std::size_t x = 0; x < a.constraints().size(); ++x) {
      for (std::size_t y = 0; y < b.constraints().size(); ++y) {
        const AttributeConstraint& ca = a.constraints()[x];
        const AttributeConstraint& cb = b.constraints()[y];
        if (ca.name != cb.name) continue;
        ASSERT_EQ(relax_join(ca, cb),
                  relax_join(a_wire.constraints()[x], b_wire.constraints()[y]))
            << ca.to_string() << " ⊔ " << cb.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace cake::filter
