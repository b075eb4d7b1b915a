// Unit tests for subscriber/publisher endpoints: the join handshake,
// perfect end-to-end filtering, stateful closure predicates, renewal and
// unsubscription.
#include "cake/routing/endpoints.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cake/routing/broker.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/runtime/sim_transport.hpp"
#include "cake/workload/generators.hpp"

namespace cake::routing {
namespace {

using event::EventImage;
using filter::FilterBuilder;
using filter::Op;
using value::Value;

class EndpointsTest : public ::testing::Test {
protected:
  EndpointsTest() {
    workload::ensure_types_registered();
    OverlayConfig config;
    config.stage_counts = {1, 2, 4};
    overlay_ = std::make_unique<Overlay>(config);
    publisher_ = &overlay_->add_publisher();
    publisher_->advertise(workload::BiblioGenerator::schema());
    overlay_->run();
  }

  EventImage pub_event(int year, const std::string& conf,
                       const std::string& author, const std::string& title) {
    return EventImage{"Publication",
                      {{"year", Value{year}},
                       {"conference", Value{conf}},
                       {"author", Value{author}},
                       {"title", Value{title}}}};
  }

  std::unique_ptr<Overlay> overlay_;
  PublisherNode* publisher_ = nullptr;
};

TEST_F(EndpointsTest, JoinHandshakeLandsOnStageOneBroker) {
  auto& sub = overlay_->add_subscriber();
  const std::uint64_t token = sub.subscribe(
      FilterBuilder{"Publication"}
          .where("year", Op::Eq, Value{2002})
          .where("conference", Op::Eq, Value{"ICDCS"})
          .where("author", Op::Eq, Value{"Eugster"})
          .where("title", Op::Eq, Value{"Cake"})
          .build(),
      {});
  overlay_->run();
  const auto parent = sub.accepted_at(token);
  ASSERT_TRUE(parent.has_value());
  bool is_stage1 = false;
  for (Broker* leaf : overlay_->brokers_at(1)) is_stage1 |= (leaf->id() == *parent);
  EXPECT_TRUE(is_stage1);
  // Root → stage-2 → stage-1 means exactly two redirects.
  EXPECT_EQ(sub.stats().join_redirects, 2u);
}

TEST_F(EndpointsTest, ExactFilterAppliedEndToEnd) {
  auto& sub = overlay_->add_subscriber();
  std::vector<EventImage> got;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .where("conference", Op::Eq, Value{"ICDCS"})
                    .where("author", Op::Eq, Value{"Eugster"})
                    .where("title", Op::Eq, Value{"Cake"})
                    .build(),
                [&](const EventImage& e) { got.push_back(e); });
  overlay_->run();

  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "Cake"));
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "Other"));
  publisher_->publish(pub_event(1999, "SOSP", "Lamport", "Paxos"));
  overlay_->run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(*got[0].find("title"), Value{"Cake"});
  // The event with the wrong title reached the subscriber (stage-1 filters
  // ignore titles) but was rejected by the exact filter: that is the
  // perfect end-to-end stage.
  EXPECT_EQ(sub.stats().events_received, 2u);
  EXPECT_EQ(sub.stats().events_delivered, 1u);
}

TEST_F(EndpointsTest, StatefulClosurePredicateRunsOnlyAtTheEdge) {
  // The paper's BuyFilter: match when the price drops below 95% of the
  // previous matching price, under a hard maximum.
  auto& sub = overlay_->add_subscriber();
  publisher_->advertise(workload::StockGenerator::schema());
  overlay_->run();

  std::vector<double> bought;
  double last = 1e9;
  sub.subscribe(
      FilterBuilder{"Stock"}
          .where("symbol", Op::Eq, Value{"Foo"})
          .where("price", Op::Lt, Value{10.0})
          .build(),
      [&](const EventImage& e) { bought.push_back(*e.find("price")->as_number()); },
      [&last](const EventImage& e) {
        const double price = *e.find("price")->as_number();
        const bool hit = price <= last * 0.95;
        last = price;
        return hit;
      });
  overlay_->run();

  auto quote = [&](double price) {
    publisher_->publish(event::image_of(workload::Stock{"Foo", price, 100}));
    overlay_->run();
  };
  quote(9.0);   // 9.0 <= 1e9*0.95 → buy; last=9.0
  quote(8.9);   // 8.9 > 9.0*0.95=8.55 → no; last=8.9
  quote(8.0);   // 8.0 <= 8.9*0.95=8.455 → buy; last=8.0
  quote(12.0);  // above max: never reaches the closure
  EXPECT_EQ(bought, (std::vector<double>{9.0, 8.0}));
}

TEST_F(EndpointsTest, TwoSubscriptionsOnOneProcess) {
  auto& sub = overlay_->add_subscriber();
  int eugster = 0, lamport = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("author", Op::Eq, Value{"Eugster"})
                    .build(),
                [&](const EventImage&) { ++eugster; });
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("author", Op::Eq, Value{"Lamport"})
                    .build(),
                [&](const EventImage&) { ++lamport; });
  overlay_->run();
  EXPECT_EQ(sub.subscriptions(), 2u);

  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  publisher_->publish(pub_event(1998, "PODC", "Lamport", "B"));
  publisher_->publish(pub_event(1998, "PODC", "Lamport", "C"));
  overlay_->run();
  EXPECT_EQ(eugster, 1);
  EXPECT_EQ(lamport, 2);
}

TEST_F(EndpointsTest, UnsubscribeStopsDelivery) {
  auto& sub = overlay_->add_subscriber();
  int count = 0;
  const auto token = sub.subscribe(FilterBuilder{"Publication"}
                                       .where("year", Op::Eq, Value{2002})
                                       .build(),
                                   [&](const EventImage&) { ++count; });
  overlay_->run();
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  overlay_->run();
  EXPECT_EQ(count, 1);

  sub.unsubscribe(token);
  overlay_->run();
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "B"));
  overlay_->run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sub.subscriptions(), 0u);
}

// Two subscriptions that differ only in the attribute stage 1 weakens away
// are stored under one form at one broker, which keeps a single lease per
// (child, form). Dropping one of them must leave the other routed.
TEST_F(EndpointsTest, UnsubscribeKeepsSiblingWithTheSameStoredForm) {
  auto& sub = overlay_->add_subscriber();
  const auto titled = [](const char* title) {
    return FilterBuilder{"Publication"}
        .where("year", Op::Eq, Value{2002})
        .where("conference", Op::Eq, Value{"ICDCS"})
        .where("author", Op::Eq, Value{"Eugster"})
        .where("title", Op::Eq, Value{title})
        .build();
  };
  int cake = 0, other = 0;
  const auto cake_token =
      sub.subscribe(titled("Cake"), [&](const EventImage&) { ++cake; });
  overlay_->run();  // placed first, so the sibling's join finds its form
  const auto other_token =
      sub.subscribe(titled("Other"), [&](const EventImage&) { ++other; });
  overlay_->run();
  ASSERT_TRUE(sub.accepted_at(cake_token).has_value());
  ASSERT_EQ(sub.accepted_at(cake_token), sub.accepted_at(other_token));
  const auto views = sub.subscription_views();
  ASSERT_EQ(views.size(), 2u);
  ASSERT_EQ(views[0].stored, views[1].stored);

  sub.unsubscribe(cake_token);
  overlay_->run();
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "Cake"));
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "Other"));
  overlay_->run();
  EXPECT_EQ(cake, 0);
  EXPECT_EQ(other, 1);

  // The last subscription on the form does withdraw it.
  sub.unsubscribe(other_token);
  overlay_->run();
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "Other"));
  overlay_->run();
  EXPECT_EQ(other, 1);
  const Broker* host = nullptr;
  for (Broker* leaf : overlay_->brokers_at(1))
    if (leaf->id() == *views[0].parent) host = leaf;
  ASSERT_NE(host, nullptr);
  for (const auto& [stored, children] : host->table())
    EXPECT_EQ(std::count(children.begin(), children.end(), sub.id()), 0);
}

TEST_F(EndpointsTest, RenewalKeepsSubscriptionAliveAcrossTtl) {
  OverlayConfig config;
  config.stage_counts = {1, 2};
  config.broker.ttl = 1'000'000;
  config.broker.renew_interval = 400'000;
  config.broker.reap_interval = 500'000;
  config.subscriber.renew_interval = 400'000;
  Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema());
  auto& sub = overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  overlay.run();

  // Far beyond 3×TTL: background renewals must keep the path alive.
  overlay.scheduler().run_until(overlay.scheduler().now() + 20'000'000);
  pub.publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  overlay.run();
  EXPECT_EQ(count, 1);
}

TEST_F(EndpointsTest, WithoutRenewalSubscriptionExpires) {
  OverlayConfig config;
  config.stage_counts = {1, 2};
  config.broker.ttl = 1'000'000;
  config.broker.renew_interval = 400'000;
  config.broker.reap_interval = 500'000;
  config.subscriber.auto_renew = false;  // subscriber dies silently
  Overlay overlay{config};
  auto& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema());
  auto& sub = overlay.add_subscriber();
  int count = 0;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage&) { ++count; });
  overlay.run();

  overlay.scheduler().run_until(overlay.scheduler().now() + 20'000'000);
  pub.publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  overlay.run();
  // The soft state timed out end-to-end: no delivery, empty leaf tables.
  EXPECT_EQ(count, 0);
  for (Broker* leaf : overlay.brokers_at(1)) EXPECT_TRUE(leaf->table().empty());
}

TEST_F(EndpointsTest, PublisherCountsEvents) {
  EXPECT_EQ(publisher_->stats().events_published, 0u);
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "A"));
  publisher_->publish(pub_event(2002, "ICDCS", "Eugster", "B"));
  EXPECT_EQ(publisher_->stats().events_published, 2u);
}

TEST_F(EndpointsTest, TypedPublishExtractsImageViaReflection) {
  auto& sub = overlay_->add_subscriber();
  publisher_->advertise(workload::StockGenerator::schema());
  overlay_->run();
  std::vector<std::string> symbols;
  sub.subscribe(FilterBuilder{"Stock"}
                    .where("price", Op::Lt, Value{50.0})
                    .build(),
                [&](const EventImage& e) {
                  symbols.push_back(e.find("symbol")->as_string());
                });
  overlay_->run();
  publisher_->publish(workload::Stock{"AAA", 40.0, 10});  // typed object
  publisher_->publish(workload::Stock{"BBB", 60.0, 10});
  overlay_->run();
  EXPECT_EQ(symbols, std::vector<std::string>{"AAA"});
}

// ---- the subscription table ------------------------------------------------

// One root broker: every subscription of a subscriber lives there, so each
// event reaches the subscriber over exactly one path.
struct TableFx {
  TableFx() {
    workload::ensure_types_registered();
    OverlayConfig config;
    config.stage_counts = {1};
    overlay = std::make_unique<Overlay>(config);
    publisher = &overlay->add_publisher();
    publisher->advertise(workload::BiblioGenerator::schema());
    overlay->run();
  }

  void publish(int year, const std::string& author) {
    publisher->publish(EventImage{"Publication",
                                  {{"year", Value{year}},
                                   {"conference", Value{"ICDCS"}},
                                   {"author", Value{author}},
                                   {"title", Value{"t"}}}});
    overlay->run();
  }

  std::unique_ptr<Overlay> overlay;
  PublisherNode* publisher = nullptr;
};

filter::ConjunctiveFilter year_filter(int year) {
  return FilterBuilder{"Publication"}.where("year", Op::Eq, Value{year}).build();
}

TEST(SubscriptionTable, MatchingHandlersRunOnceEachInAscendingTokenOrder) {
  TableFx fx;
  auto& sub = fx.overlay->add_subscriber();
  std::vector<std::uint64_t> tokens;
  std::vector<std::uint64_t> calls;
  // Five matching subscriptions with a non-matching one between each.
  for (int i = 0; i < 5; ++i) {
    const std::size_t slot = tokens.size();
    tokens.push_back(sub.subscribe(
        year_filter(2002), [&calls, &tokens, slot](const EventImage&) {
          calls.push_back(tokens[slot]);
        }));
    sub.subscribe(year_filter(1990 + i),
                  [&calls](const EventImage&) { calls.push_back(0); });
  }
  fx.overlay->run();
  ASSERT_TRUE(std::is_sorted(tokens.begin(), tokens.end()));

  fx.publish(2002, "Eugster");
  EXPECT_EQ(calls, tokens);
  EXPECT_EQ(sub.stats().events_received, 1u);
  EXPECT_EQ(sub.stats().events_delivered, 1u);
}

TEST(SubscriptionTable, UnsubscribingFirstMiddleAndLastKeepsTheRestDelivering) {
  TableFx fx;
  auto& sub = fx.overlay->add_subscriber();
  const sim::NodeId root = fx.overlay->root().id();
  std::vector<std::uint64_t> tokens;
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 5; ++i) {
    const std::string author = std::string{"A"}.append(std::to_string(i));
    const std::uint64_t token = sub.subscribe(
        FilterBuilder{"Publication"}.where("author", Op::Eq, Value{author}).build(),
        [&counts, &tokens, i](const EventImage&) { ++counts[tokens[i]]; });
    tokens.push_back(token);
  }
  fx.overlay->run();
  const auto publish_all = [&] {
    for (int i = 0; i < 5; ++i)
      fx.publish(2002, std::string{"A"}.append(std::to_string(i)));
  };

  std::vector<std::uint64_t> live = tokens;
  std::map<std::uint64_t, int> expected;
  for (const std::uint64_t token : tokens) expected[token] = 0;
  // First, then middle, then last of what is left: 0, 2, 4.
  for (const std::size_t gone : {0u, 2u, 4u}) {
    for (const std::uint64_t token : live) ++expected[token];
    publish_all();
    EXPECT_EQ(counts, expected);
    for (const std::uint64_t token : tokens) {
      const bool alive =
          std::find(live.begin(), live.end(), token) != live.end();
      EXPECT_EQ(sub.accepted_at(token),
                alive ? std::optional<sim::NodeId>{root} : std::nullopt)
          << "token " << token;
    }
    sub.unsubscribe(tokens[gone]);
    live.erase(std::find(live.begin(), live.end(), tokens[gone]));
    fx.overlay->run();
    EXPECT_EQ(sub.subscriptions(), live.size());
  }
  for (const std::uint64_t token : live) ++expected[token];
  publish_all();
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(sub.accepted_at(tokens[1]), std::optional<sim::NodeId>{root});
  EXPECT_EQ(sub.accepted_at(tokens[3]), std::optional<sim::NodeId>{root});
  EXPECT_EQ(sub.accepted_at(tokens[0]), std::nullopt);
  EXPECT_EQ(sub.accepted_at(tokens[4]), std::nullopt);
  EXPECT_EQ(sub.accepted_at(tokens.back() + 1), std::nullopt);
}

TEST(SubscriptionTable, CompositeAmongPlainSubscriptionsFiresOncePerEvent) {
  TableFx fx;
  auto& sub = fx.overlay->add_subscriber();
  int plain = 0;
  int composite = 0;
  const std::uint64_t before = sub.subscribe(
      year_filter(2002), [&plain](const EventImage&) { ++plain; });
  const std::vector<std::uint64_t> members = sub.subscribe_any(
      {year_filter(2002),
       FilterBuilder{"Publication"}
           .where("author", Op::Eq, Value{"Eugster"})
           .build(),
       year_filter(2001)},
      [&composite](const EventImage&) { ++composite; });
  sub.subscribe(year_filter(2002), [&plain](const EventImage&) { ++plain; });
  fx.overlay->run();

  fx.publish(2002, "Eugster");  // two members match
  fx.publish(2001, "Eugster");  // two members match
  fx.publish(1999, "Lamport");  // none
  EXPECT_EQ(composite, 2);
  EXPECT_EQ(plain, 2);

  // Dropping the plain subscription ahead of the group and the group's
  // first member leaves the composite firing once per event.
  sub.unsubscribe(before);
  sub.unsubscribe(members[0]);
  fx.overlay->run();
  fx.publish(2002, "Eugster");
  fx.publish(2001, "Lamport");
  EXPECT_EQ(composite, 4);
  EXPECT_EQ(plain, 3);
}

// An image with every value kind the wire carries, a string longer than
// the SSO buffer, and opaque bytes.
EventImage rich_image(std::string title) {
  return EventImage{"Publication",
                    {{"year", Value{2002}},
                     {"title", Value{std::move(title)}},
                     {"score", Value{9.75}},
                     {"open", Value{true}},
                     {"note", Value{}}},
                    {std::byte{0xca}, std::byte{0xfe}, std::byte{0x00}}};
}

TEST(DecodeEventOnce, MemoEqualsTheFullDecode) {
  const std::string title(40, 't');
  const sim::Network::Payload frame =
      encode_event_frame(rich_image(title), 123, 77, 9);
  const EventMsg& memo = decode_event_once(frame);
  const EventMsg full = std::get<EventMsg>(decode(frame.bytes()));
  EXPECT_EQ(memo.image, full.image);
  EXPECT_EQ(memo.image.opaque(), full.image.opaque());
  EXPECT_EQ(memo.published_at, full.published_at);
  EXPECT_EQ(memo.event_id, full.event_id);
  EXPECT_EQ(memo.trace_id, full.trace_id);
  EXPECT_EQ(memo.image.find("title")->as_string(), title);  // owned string
  EXPECT_EQ(memo.image.find("score")->as_double(), 9.75);
  EXPECT_TRUE(memo.image.find("open")->as_bool());
  EXPECT_TRUE(memo.image.find("note")->is_null());
  // Every other holder of the frame reads the same memo.
  const sim::Network::Payload copy = frame;
  EXPECT_EQ(&decode_event_once(copy), &memo);
}

TEST(DecodeEventOnce, RecycledFrameNeverServesAStaleMemo) {
  const EventMsg* first = nullptr;
  {
    const sim::Network::Payload a =
        encode_event_frame(rich_image("A: " + std::string(30, 'a')), 1, 1, 0);
    first = &decode_event_once(a);
    EXPECT_EQ(first->event_id, 1u);
  }  // the node returns to the thread-local freelist, memo and all
  const EventImage b_image = rich_image("B: " + std::string(30, 'b'));
  const sim::Network::Payload b = encode_event_frame(b_image, 2, 2, 0);
  const EventMsg& memo = decode_event_once(b);
  EXPECT_EQ(&memo, first);  // LIFO freelist: the recycled node's memo
  EXPECT_EQ(memo.event_id, 2u);
  EXPECT_EQ(memo.published_at, 2u);
  EXPECT_EQ(memo.image, b_image);
}

TEST(DecodeEventOnce, CorruptCopyThrowsAndLeavesTheOriginalMemoIntact) {
  const EventImage image = rich_image(std::string(32, 'c'));
  const sim::Network::Payload good = encode_event_frame(image, 5, 6, 7);
  const EventMsg& memo = decode_event_once(good);
  std::vector<std::byte> bytes{good.begin(), good.end()};
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  const sim::Network::Payload bad{std::move(bytes)};
  // Never memoized: every receiver of the corrupt copy sees the failure.
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW((void)decode_event_once(bad), wire::WireError);
  EXPECT_EQ(&decode_event_once(good), &memo);
  EXPECT_EQ(memo.image, image);
  EXPECT_EQ(memo.event_id, 6u);
}

TEST(DecodeEventOnce, RejectsEmptyAndNonEventFrames) {
  EXPECT_THROW((void)decode_event_once(sim::Network::Payload{}),
               wire::WireError);
  const sim::Network::Payload control{encode(Detach{3})};
  EXPECT_THROW((void)decode_event_once(control), wire::WireError);
}

// A broker forwards one frame to both of its subscribers: the broker's
// decode is the only one, and both handlers read that memo's image.
TEST(DecodeEventOnce, SubscribersOfOneFrameReadTheBrokersDecode) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();
  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};
  BrokerConfig broker_config;
  broker_config.auto_renew = false;
  Broker broker{1, 1, network, transport, registry, broker_config,
                util::Rng{7}};
  broker.start();
  SubscriberConfig sub_config;
  sub_config.auto_renew = false;
  SubscriberNode alice{2, 1, network, transport, registry, sub_config};
  SubscriberNode bob{3, 1, network, transport, registry, sub_config};
  alice.start();
  bob.start();
  std::vector<const EventImage*> seen;
  const auto record = [&seen](const EventImage& image) {
    seen.push_back(&image);
  };
  alice.subscribe(FilterBuilder{"Publication"}.build(), record);
  bob.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                record);
  scheduler.run();

  const sim::Network::Payload frame =
      encode_event_frame(rich_image(std::string(24, 'x')), 0, 1, 0);
  network.send(0, 1, frame);
  scheduler.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], &decode_event_once(frame).image);
  EXPECT_EQ(seen[1], seen[0]);
}


// ---- event-id dedup ------------------------------------------------------------

// Defect (c): two subscriptions of one subscriber that weaken to the same
// stored form join at the same instant, so neither join's covering search
// sees the other and they land at two different stage-1 brokers. Both
// brokers then forward every event the shared form matches, and the
// subscriber's event-id dedup must keep each handler to one call per event.
TEST(EventDedup, SiblingsHostedAtTwoBrokersFireOncePerEvent) {
  workload::ensure_types_registered();
  OverlayConfig config;
  config.stage_counts = {1, 2, 4};
  config.seed = 3;
  Overlay overlay{config};
  auto& publisher = overlay.add_publisher();
  publisher.advertise(workload::BiblioGenerator::schema());
  overlay.run();

  auto& sub = overlay.add_subscriber();
  const auto titled = [](const char* title) {
    return FilterBuilder{"Publication"}
        .where("year", Op::Eq, Value{2002})
        .where("conference", Op::Eq, Value{"ICDCS"})
        .where("author", Op::Eq, Value{"Eugster"})
        .where("title", Op::Eq, Value{title})
        .build();
  };
  int cake = 0, other = 0;
  const auto cake_token =
      sub.subscribe(titled("Cake"), [&](const EventImage&) { ++cake; });
  const auto other_token =
      sub.subscribe(titled("Other"), [&](const EventImage&) { ++other; });
  overlay.run();
  ASSERT_TRUE(sub.accepted_at(cake_token).has_value());
  ASSERT_TRUE(sub.accepted_at(other_token).has_value());
  ASSERT_NE(sub.accepted_at(cake_token), sub.accepted_at(other_token));
  const auto views = sub.subscription_views();
  ASSERT_EQ(views.size(), 2u);
  ASSERT_EQ(views[0].stored, views[1].stored);

  const auto publish = [&](const char* title) {
    publisher.publish(EventImage{"Publication",
                                 {{"year", Value{2002}},
                                  {"conference", Value{"ICDCS"}},
                                  {"author", Value{"Eugster"}},
                                  {"title", Value{title}}}});
  };
  for (int i = 0; i < 3; ++i) {
    publish("Cake");
    publish("Other");
  }
  overlay.run();
  EXPECT_EQ(cake, 3);
  EXPECT_EQ(other, 3);
  EXPECT_EQ(sub.stats().events_received, 12u);  // each event over two paths
  EXPECT_EQ(sub.stats().events_delivered, 6u);
  EXPECT_EQ(sub.stats().events_stale, 0u);
}

// A lone subscriber fed event frames straight off the network, so a test
// picks every event id and the order copies arrive in.
struct DedupFx {
  DedupFx() {
    workload::ensure_types_registered();
    SubscriberConfig config;
    config.auto_renew = false;
    sub = std::make_unique<SubscriberNode>(
        2, 1, network, transport, reflect::TypeRegistry::global(), config);
    sub->start();
    sub->subscribe(FilterBuilder{"Publication"}.build(),
                   [this](const EventImage&) { ++handled; });
    scheduler.run();
  }

  /// Sends one copy of `publisher`'s event `seq`; true when it was handled.
  bool deliver(std::uint64_t publisher, std::uint32_t seq) {
    const std::uint64_t before = handled;
    network.send(1, 2,
                 encode_event_frame(image, 0, (publisher << 32) | seq, 0));
    scheduler.run();
    return handled > before;
  }

  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};
  std::unique_ptr<SubscriberNode> sub;
  EventImage image{"Publication", {{"year", Value{2002}}}};
  std::uint64_t handled = 0;
};

TEST(DedupWindow, FirstCopiesInAnyOrderDeliverRepeatsDoNot) {
  DedupFx fx;
  EXPECT_TRUE(fx.deliver(1, 10));
  EXPECT_TRUE(fx.deliver(1, 12));
  EXPECT_TRUE(fx.deliver(1, 11));  // reordered, inside the window
  EXPECT_TRUE(fx.deliver(1, 3));   // older than the first heard, still inside
  EXPECT_FALSE(fx.deliver(1, 11));
  EXPECT_FALSE(fx.deliver(1, 12));
  EXPECT_FALSE(fx.deliver(1, 10));
  EXPECT_FALSE(fx.deliver(1, 3));
  EXPECT_EQ(fx.handled, 4u);
  EXPECT_EQ(fx.sub->stats().events_received, 8u);
  EXPECT_EQ(fx.sub->stats().events_delivered, 4u);
  EXPECT_EQ(fx.sub->stats().events_stale, 0u);
}

TEST(DedupWindow, CopyOlderThanTheWindowIsDroppedAndCounted) {
  DedupFx fx;
  EXPECT_TRUE(fx.deliver(1, 100));
  EXPECT_TRUE(fx.deliver(1, 100 + kDedupWindow));
  // 100 now trails the high-water mark by a full window: it is stale, even
  // though this copy is a repeat the ring can no longer vouch for.
  EXPECT_FALSE(fx.deliver(1, 100));
  EXPECT_EQ(fx.sub->stats().events_stale, 1u);
  // One seq newer is the oldest the window still covers: a first copy.
  EXPECT_TRUE(fx.deliver(1, 101));
  EXPECT_FALSE(fx.deliver(1, 101));
  EXPECT_EQ(fx.sub->stats().events_stale, 1u);
  EXPECT_EQ(fx.handled, 3u);
}

TEST(DedupWindow, JumpOfAWindowOrMoreForgetsTheOverwrittenSeqs) {
  DedupFx fx;
  for (std::uint32_t seq = 1; seq <= 200; ++seq) ASSERT_TRUE(fx.deliver(1, seq));
  // Exactly one window ahead: seq k + kDedupWindow reuses the ring bit seq
  // k set, so each one below the new high-water mark must read unseen.
  ASSERT_TRUE(fx.deliver(1, 200 + kDedupWindow));
  for (std::uint32_t seq = 1; seq < 200; seq += 7)
    EXPECT_TRUE(fx.deliver(1, seq + kDedupWindow)) << seq;
  EXPECT_FALSE(fx.deliver(1, 200));  // now stale
  // More than a window ahead clears every bit at once, the ones the seqs
  // just above set included.
  ASSERT_TRUE(fx.deliver(1, 3 * kDedupWindow + 300));
  for (std::uint32_t seq = 1; seq < 200; seq += 7)
    EXPECT_TRUE(fx.deliver(1, seq + 3 * kDedupWindow)) << seq;
  EXPECT_EQ(fx.sub->stats().events_stale, 1u);
}

TEST(DedupWindow, PublishersKeepIndependentWindows) {
  DedupFx fx;
  EXPECT_TRUE(fx.deliver(1, 5));
  EXPECT_TRUE(fx.deliver(2, 5));  // same seq, another publisher
  EXPECT_TRUE(fx.deliver(2, 5 + 2 * kDedupWindow));
  // Publisher 2's jump leaves publisher 1's window where it was.
  EXPECT_TRUE(fx.deliver(1, 6));
  EXPECT_FALSE(fx.deliver(1, 5));
  EXPECT_EQ(fx.sub->stats().events_stale, 0u);
  EXPECT_FALSE(fx.deliver(2, 5));  // stale for publisher 2 only
  EXPECT_EQ(fx.sub->stats().events_stale, 1u);
  EXPECT_EQ(fx.handled, 4u);
}

// Differential check against a model that remembers every seq it
// delivered: seqs wander around the high-water mark by up to a window and
// a half, advance in strides that cross ring words and wrap the ring, and
// repeat often. The window must agree with the model on every copy.
TEST(DedupWindow, AgreesWithAnUnboundedModel) {
  DedupFx fx;
  util::Rng rng{2002};
  std::set<std::uint32_t> delivered;
  std::uint32_t high = 0;
  std::uint64_t stale = 0;
  for (int i = 0; i < 4000; ++i) {
    std::int64_t seq = static_cast<std::int64_t>(high);
    const std::uint64_t pick = rng.below(10);
    if (pick < 4) {
      seq += rng.between(1, 3 * 64);
    } else if (pick < 5) {
      seq += rng.between(kDedupWindow / 2, 2 * kDedupWindow);
    } else {
      seq -= rng.between(0, kDedupWindow + kDedupWindow / 2);
    }
    if (seq < 0) seq = rng.between(0, high);
    const auto s = static_cast<std::uint32_t>(seq);
    bool expect = false;
    if (delivered.empty() || s > high) {
      expect = true;
      high = s;
    } else if (high - s >= kDedupWindow) {
      ++stale;
    } else {
      expect = delivered.count(s) == 0;
    }
    if (expect) delivered.insert(s);
    ASSERT_EQ(fx.deliver(7, s), expect) << "copy " << i << ", seq " << s;
  }
  EXPECT_EQ(fx.sub->stats().events_stale, stale);
  EXPECT_GT(stale, 0u);
  EXPECT_EQ(fx.handled, delivered.size());
}

}  // namespace
}  // namespace cake::routing
