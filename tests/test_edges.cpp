// Small edge-case battery: API misuse paths and representation corners
// that the larger suites route around.
#include <gtest/gtest.h>

#include <cmath>

#include "cake/core/event_system.hpp"
#include "cake/peer/peer.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using filter::FilterBuilder;
using filter::Op;
using value::Value;

struct Unregistered final : event::Event {
  [[nodiscard]] const reflect::TypeInfo& type() const noexcept override {
    return reflect::TypeRegistry::global().get("Stock");  // never reached
  }
};

TEST(Edges, TypedSubscribeToUnregisteredTypeThrows) {
  workload::ensure_types_registered();
  core::EventSystem::Config config;
  config.overlay.stage_counts = {1, 2};
  core::EventSystem sys{config};
  auto& sub = sys.make_subscriber();
  EXPECT_THROW(sub.subscribe<Unregistered>(FilterBuilder{}.build(),
                                           [](const Unregistered&) {}),
               reflect::ReflectError);
}

TEST(Edges, KindNamesAreStable) {
  using value::Kind;
  EXPECT_EQ(value::to_string(Kind::Null), "null");
  EXPECT_EQ(value::to_string(Kind::Bool), "bool");
  EXPECT_EQ(value::to_string(Kind::Int), "int");
  EXPECT_EQ(value::to_string(Kind::Double), "double");
  EXPECT_EQ(value::to_string(Kind::String), "string");
}

TEST(Edges, NanDoubleSurvivesTheWire) {
  wire::Writer w;
  w.f64(std::nan(""));
  w.f64(std::numeric_limits<double>::infinity());
  wire::Reader r{w.bytes()};
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_TRUE(std::isinf(r.f64()));
}

TEST(Edges, NanNeverMatchesOrderedConstraints) {
  workload::ensure_types_registered();
  const event::EventImage image{
      "Stock", {{"price", Value{std::nan("")}}}};
  EXPECT_FALSE(filter::AttributeConstraint({"price", Op::Lt, Value{10.0}})
                   .matches(image));
  EXPECT_FALSE(filter::AttributeConstraint({"price", Op::Ge, Value{10.0}})
                   .matches(image));
  // Existence still holds: the attribute is present.
  EXPECT_TRUE(filter::AttributeConstraint({"price", Op::Exists, {}})
                  .matches(image));
}

TEST(Edges, RngFullSignedRange) {
  util::Rng rng{9};
  // span == 0 internally (full 64-bit range): must not divide by zero.
  for (int i = 0; i < 10; ++i) {
    (void)rng.between(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max());
  }
  SUCCEED();
}

class PeerEngines : public ::testing::TestWithParam<index::Engine> {};

TEST_P(PeerEngines, MeshDeliversUnderEveryEngine) {
  workload::ensure_types_registered();
  peer::PeerConfig config;
  config.engine = GetParam();
  peer::PeerMesh mesh{6, config, 4};
  auto& sub = mesh.add_subscriber(5);
  auto& pub = mesh.add_publisher(0);
  int count = 0;
  sub.subscribe(FilterBuilder{"Stock"}
                    .where("price", Op::Lt, Value{50.0})
                    .build(),
                [&](const event::EventImage&) { ++count; });
  mesh.run();
  pub.publish(event::image_of(workload::Stock{"A", 10.0, 1}));
  pub.publish(event::image_of(workload::Stock{"B", 90.0, 1}));
  mesh.run();
  EXPECT_EQ(count, 1);
}

INSTANTIATE_TEST_SUITE_P(Engines, PeerEngines,
                         ::testing::Values(index::Engine::Naive,
                                           index::Engine::Counting),
                         [](const auto& info) {
                           return info.param == index::Engine::Naive
                                      ? "Naive"
                                      : "Counting";
                         });

TEST(Edges, EmptyOverlayRunsToQuiescence) {
  routing::OverlayConfig config;
  config.stage_counts = {1};
  routing::Overlay overlay{config};
  EXPECT_EQ(overlay.run(), 0u);
  EXPECT_TRUE(overlay.root().table().empty());
}

TEST(Edges, PublishWithNoSubscribersDiesAtTheRoot) {
  workload::ensure_types_registered();
  routing::OverlayConfig config;
  config.stage_counts = {1, 3};
  routing::Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema(3));
  overlay.run();
  workload::BiblioGenerator gen{{}, 1};
  for (int i = 0; i < 50; ++i) pub.publish(gen.next_event());
  overlay.run();
  EXPECT_EQ(overlay.root().stats().events_received, 50u);
  EXPECT_EQ(overlay.root().stats().events_forwarded, 0u);
  for (routing::Broker* leaf : overlay.brokers_at(1))
    EXPECT_EQ(leaf->stats().events_received, 0u);
}

}  // namespace
}  // namespace cake
