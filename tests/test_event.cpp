// Unit tests for typed events, images, codecs and wire round trips.
#include "cake/event/event.hpp"

#include <gtest/gtest.h>

#include "cake/workload/types.hpp"

namespace cake::event {
namespace {

using workload::Auction;
using workload::CarAuction;
using workload::Publication;
using workload::Stock;
using workload::VehicleAuction;

class EventTest : public ::testing::Test {
protected:
  void SetUp() override { workload::ensure_types_registered(); }
};

TEST_F(EventTest, ImageOfExtractsAllAttributesInOrder) {
  const Stock stock{"Foo", 10.0, 32300};
  const EventImage image = image_of(stock);
  EXPECT_EQ(image.type_name(), "Stock");
  ASSERT_EQ(image.attributes().size(), 3u);
  EXPECT_EQ(image.attributes()[0].name, "symbol");
  EXPECT_EQ(image.attributes()[0].value, value::Value{"Foo"});
  EXPECT_EQ(image.attributes()[1].name, "price");
  EXPECT_EQ(image.attributes()[1].value, value::Value{10.0});
  EXPECT_EQ(image.attributes()[2].name, "volume");
  EXPECT_EQ(image.attributes()[2].value, value::Value{32300});
}

TEST_F(EventTest, ImageOfSubtypeIncludesInheritedAttributesFirst) {
  const CarAuction car{9000.0, 4, 5};
  const EventImage image = image_of(car);
  EXPECT_EQ(image.type_name(), "CarAuction");
  ASSERT_EQ(image.attributes().size(), 5u);
  EXPECT_EQ(image.attributes()[0].name, "product");
  EXPECT_EQ(image.attributes()[0].value, value::Value{"Vehicle"});
  EXPECT_EQ(image.attributes()[2].name, "kind");
  EXPECT_EQ(image.attributes()[2].value, value::Value{"Car"});
  EXPECT_EQ(image.attributes()[4].name, "doors");
  EXPECT_EQ(image.attributes()[4].value, value::Value{5});
}

TEST_F(EventTest, FindAndHas) {
  const EventImage image = image_of(Stock{"Bar", 15.0, 25600});
  ASSERT_NE(image.find("price"), nullptr);
  EXPECT_EQ(*image.find("price"), value::Value{15.0});
  EXPECT_EQ(image.find("nope"), nullptr);
  EXPECT_TRUE(image.has("symbol"));
  EXPECT_FALSE(image.has("nope"));
}

TEST_F(EventTest, ProjectionKeepsOnlyNamedAttributes) {
  const EventImage image = image_of(Stock{"Foo", 10.0, 32300});
  const EventImage weak = image.project({"symbol", "price"});
  EXPECT_EQ(weak.type_name(), "Stock");
  ASSERT_EQ(weak.attributes().size(), 2u);
  EXPECT_TRUE(weak.has("symbol"));
  EXPECT_TRUE(weak.has("price"));
  EXPECT_FALSE(weak.has("volume"));
}

TEST_F(EventTest, ProjectionIgnoresUnknownNames) {
  const EventImage image = image_of(Stock{"Foo", 10.0, 1});
  const EventImage weak = image.project({"symbol", "ghost"});
  EXPECT_EQ(weak.attributes().size(), 1u);
}

TEST_F(EventTest, ProjectionToEmpty) {
  const EventImage image = image_of(Stock{"Foo", 10.0, 1});
  EXPECT_TRUE(image.project({}).attributes().empty());
}

TEST_F(EventTest, EncodeDecodeRoundTrip) {
  const EventImage image = image_of(Publication{2002, "ICDCS", "Eugster",
                                                "Event Systems"});
  wire::Writer w;
  image.encode(w);
  wire::Reader r{w.bytes()};
  EXPECT_EQ(EventImage::decode(r), image);
}

TEST_F(EventTest, ToStringPaperRendering) {
  const EventImage image = image_of(Stock{"Foo", 10.0, 32300});
  EXPECT_EQ(image.to_string(),
            "(class, \"Stock\") (symbol, \"Foo\") (price, 10.0) (volume, 32300)");
}

TEST_F(EventTest, CodecRebuildsTypedEvent) {
  const Stock original{"Foo", 10.0, 32300};
  const std::unique_ptr<Event> rebuilt =
      EventCodec::global().decode(image_of(original));
  const auto* stock = dynamic_cast<const Stock*>(rebuilt.get());
  ASSERT_NE(stock, nullptr);
  EXPECT_EQ(stock->symbol(), "Foo");
  EXPECT_EQ(stock->price(), 10.0);
  EXPECT_EQ(stock->volume(), 32300);
}

TEST_F(EventTest, CodecRebuildsSubtypeAsItsDynamicType) {
  const VehicleAuction original{5000.0, "Truck", 12};
  const std::unique_ptr<Event> rebuilt =
      EventCodec::global().decode(image_of(original));
  const auto* vehicle = dynamic_cast<const VehicleAuction*>(rebuilt.get());
  ASSERT_NE(vehicle, nullptr);
  EXPECT_EQ(vehicle->kind(), "Truck");
  EXPECT_EQ(vehicle->product(), "Vehicle");
  // Also reachable through the base type (polymorphic delivery).
  EXPECT_NE(dynamic_cast<const Auction*>(rebuilt.get()), nullptr);
}

TEST_F(EventTest, CodecUnknownTypeThrows) {
  const EventImage orphan{"Ghost", {}};
  EXPECT_THROW((void)EventCodec::global().decode(orphan), reflect::ReflectError);
  EXPECT_FALSE(EventCodec::global().can_decode("Ghost"));
  EXPECT_TRUE(EventCodec::global().can_decode("Stock"));
}

TEST_F(EventTest, WireRoundTripFullPath) {
  const Stock original{"Baz", 99.5, 777};
  const std::vector<std::byte> bytes = to_wire(original);
  const std::unique_ptr<Event> rebuilt = from_wire(bytes, EventCodec::global());
  const auto* stock = dynamic_cast<const Stock*>(rebuilt.get());
  ASSERT_NE(stock, nullptr);
  EXPECT_EQ(stock->symbol(), "Baz");
}

TEST_F(EventTest, ImageFromWireNeedsNoFactory) {
  const Stock original{"Qux", 1.0, 2};
  const EventImage image = image_from_wire(to_wire(original));
  EXPECT_EQ(image, image_of(original));
}

TEST_F(EventTest, CorruptWireBytesThrow) {
  auto bytes = to_wire(Stock{"Foo", 1.0, 1});
  bytes[bytes.size() / 2] ^= std::byte{0x5a};
  EXPECT_THROW((void)image_from_wire(bytes), wire::WireError);
}

TEST_F(EventTest, MissingImageAttributeFailsReconstruction) {
  EventImage partial{"Stock", {{"symbol", value::Value{"Foo"}}}};
  EXPECT_THROW((void)EventCodec::global().decode(partial), reflect::ReflectError);
}

// Opaque payload: state not exposed as an attribute still crosses the wire.
class Sealed final : public EventOf<Sealed> {
public:
  explicit Sealed(std::string secret) : secret_(std::move(secret)) {}
  explicit Sealed(const EventImage& image) {
    wire::Reader r{image.opaque()};
    secret_ = r.string();
  }
  void save_extra(wire::Writer& w) const override { w.string(secret_); }
  [[nodiscard]] const std::string& secret() const noexcept { return secret_; }
  [[nodiscard]] std::int64_t tag() const noexcept { return 7; }

private:
  std::string secret_;
};

TEST_F(EventTest, OpaquePayloadSurvivesWireButNotProjection) {
  auto& registry = reflect::TypeRegistry::global();
  if (!registry.contains<Sealed>()) {
    reflect::TypeBuilder<Sealed>{registry, "Sealed"}
        .attr("tag", &Sealed::tag)
        .finalize();
    EventCodec::global().add("Sealed", [](const EventImage& image) {
      return std::make_unique<Sealed>(image);
    });
  }
  const Sealed original{"hidden-state"};
  const EventImage image = image_of(original);
  EXPECT_FALSE(image.opaque().empty());
  // Brokers never see the secret as an attribute...
  EXPECT_EQ(image.find("secret"), nullptr);
  // ...weakened copies drop it entirely...
  EXPECT_TRUE(image.project({"tag"}).opaque().empty());
  // ...but the subscriber-side reconstruction gets it back.
  const auto rebuilt = from_wire(to_wire(original), EventCodec::global());
  const auto* sealed = dynamic_cast<const Sealed*>(rebuilt.get());
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(sealed->secret(), "hidden-state");
}

// ImageAttribute::key is hashed once where an attribute is built and then
// trusted by the counting index and the signature word, so every way an
// image comes to be must leave key == key_of(id, value).
void expect_keys_current(const EventImage& image) {
  for (const ImageAttribute& attr : image.attributes()) {
    EXPECT_EQ(attr.key, key_of(attr.id, attr.value))
        << attr.name << " = " << attr.value.to_string();
  }
}

TEST_F(EventTest, AttributeKeyIsSetByTheConstructor) {
  const ImageAttribute attr{"price", value::Value{10}};
  EXPECT_EQ(attr.key, key_of(attr.id, value::Value{10}));
  EXPECT_EQ(attr.key, key_of(attr.id, value::Value{10.0}));  // 1 == 1.0
  EXPECT_NE(attr.key, key_of(symbol::intern("volume").id, value::Value{10}));
  EXPECT_EQ(ImageAttribute{}.key, key_of(0, value::Value{}));
  expect_keys_current(EventImage{"Ghost", {{"a", value::Value{"x"}},
                                           {"b", value::Value{true}},
                                           {"c", value::Value{}}}});
}

TEST_F(EventTest, AttributeKeyIsSetByImageOfProjectAndCopies) {
  const EventImage image = image_of(CarAuction{9000.0, 4, 5});
  expect_keys_current(image);
  expect_keys_current(image.project({"price", "doors"}));

  const EventImage copied = image;
  expect_keys_current(copied);
  EventImage assigned;
  assigned = copied;
  expect_keys_current(assigned);
  std::vector<ImageAttribute> attrs = image.attributes();
  attrs.push_back({"uid", value::Value{std::int64_t{7}}});
  expect_keys_current(EventImage{image.type_name(), std::move(attrs)});

  EventImage reused;
  image_of_into(Stock{"Foo", 1.5, 10}, reused);
  image_of_into(Publication{2002, "ICDCS", "Eugster", "CAKE"}, reused);  // warm
  expect_keys_current(reused);
}

TEST_F(EventTest, AttributeKeyIsSetByDecodeIntoAWarmImageWhoseKindsChange) {
  // Each round decodes into the same image, so the attributes it reuses
  // change value kind underneath their keys: string -> int -> double ->
  // bool -> null -> string, and the count grows and shrinks.
  const std::vector<std::vector<value::Value>> rounds = {
      {value::Value{"long enough to leave the small-string buffer"}, value::Value{1}},
      {value::Value{1}, value::Value{2.5}, value::Value{"x"}},
      {value::Value{1.0}, value::Value{true}},
      {value::Value{false}, value::Value{}, value::Value{3}},
      {value::Value{}},
      {value::Value{"y"}, value::Value{"z"}, value::Value{4}, value::Value{5.0}},
  };
  EventImage warm;
  for (const auto& values : rounds) {
    std::vector<ImageAttribute> attrs;
    for (std::size_t i = 0; i < values.size(); ++i)
      attrs.push_back({std::string(1, static_cast<char>('a' + i)), values[i]});
    const EventImage source{"Ghost", std::move(attrs)};
    wire::Writer w;
    source.encode(w);
    wire::Reader r{w.bytes()};
    warm.decode_into(r);
    EXPECT_EQ(warm, source);
    expect_keys_current(warm);
  }
}

TEST_F(EventTest, DecodeIntoRejectsARepeatedAttributeName) {
  const EventImage source{"Ghost", {{"a", value::Value{1}},
                                    {"b", value::Value{2}},
                                    {"a", value::Value{1}}}};
  wire::Writer w;
  source.encode(w);
  EventImage image;
  wire::Reader r{w.bytes()};
  EXPECT_THROW(image.decode_into(r), wire::WireError);
}

}  // namespace
}  // namespace cake::event
