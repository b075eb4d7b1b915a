// Unit tests for subscriber/publisher endpoints: the join handshake,
// perfect end-to-end filtering, stateful closure predicates, renewal and
// unsubscription.
#include "cake/routing/endpoints.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cake/routing/overlay.hpp"
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

}  // namespace
}  // namespace cake::routing
