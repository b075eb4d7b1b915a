// Protocol-level unit tests of a single broker: Fig. 5(b) subscription
// handling, Fig. 6 filtering/forwarding, wildcard placement, soft-state
// leases and unsubscription.
#include "cake/routing/broker.hpp"
#include "cake/runtime/sim_transport.hpp"

#include <gtest/gtest.h>

#include "cake/workload/generators.hpp"

namespace cake::routing {
namespace {

using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using value::Value;

/// Captures every packet delivered to a node id.
class Probe {
public:
  Probe(sim::Network& net, sim::NodeId id) : id_(id) {
    net.attach(id, [this](sim::NodeId from, const sim::Network::Payload& p) {
      from_.push_back(from);
      packets_.push_back(decode(p));
    });
  }

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<Packet>& packets() const noexcept {
    return packets_;
  }

  template <class T>
  [[nodiscard]] std::vector<T> of() const {
    std::vector<T> out;
    for (const Packet& p : packets_)
      if (const T* msg = std::get_if<T>(&p)) out.push_back(*msg);
    return out;
  }

  void clear() { packets_.clear(); from_.clear(); }

private:
  sim::NodeId id_;
  std::vector<Packet> packets_;
  std::vector<sim::NodeId> from_;
};

ConjunctiveFilter pub_filter(int year, const std::string& conf,
                             const std::string& author,
                             const std::string& title) {
  return FilterBuilder{"Publication"}
      .where("year", Op::Eq, Value{year})
      .where("conference", Op::Eq, Value{conf})
      .where("author", Op::Eq, Value{author})
      .where("title", Op::Eq, Value{title})
      .build();
}

class BrokerTest : public ::testing::Test {
protected:
  static constexpr sim::NodeId kParent = 100;
  static constexpr sim::NodeId kSub1 = 200;
  static constexpr sim::NodeId kSub2 = 201;

  BrokerTest() { workload::ensure_types_registered(); }

  /// One broker with a probed parent and `children` probed broker children.
  Broker& make_broker(std::size_t stage, BrokerConfig config = {},
                      std::size_t children = 0, bool with_parent = true) {
    broker_ = std::make_unique<Broker>(1, stage, net_, transport_,
                                       reflect::TypeRegistry::global(), config,
                                       util::Rng{7});
    if (with_parent) broker_->set_parent(kParent);
    parent_ = std::make_unique<Probe>(net_, kParent);
    for (std::size_t i = 0; i < children; ++i) {
      child_probes_.push_back(std::make_unique<Probe>(net_, 10 + i));
      broker_->add_child(10 + static_cast<sim::NodeId>(i));
    }
    sub1_ = std::make_unique<Probe>(net_, kSub1);
    sub2_ = std::make_unique<Probe>(net_, kSub2);
    broker_->start();
    advertise();
    return *broker_;
  }

  void advertise() {
    net_.send(999, broker_->id(),
              encode(Advertise{workload::BiblioGenerator::schema()}));
    sched_.run();
  }

  void send(sim::NodeId from, const Packet& packet) {
    net_.send(from, broker_->id(), encode(packet));
    sched_.run();
  }

  sim::Scheduler sched_;
  runtime::SimTransport transport_{sched_};
  sim::Network net_{sched_};
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<Probe> parent_;
  std::unique_ptr<Probe> sub1_;
  std::unique_ptr<Probe> sub2_;
  std::vector<std::unique_ptr<Probe>> child_probes_;
};

TEST_F(BrokerTest, RejectsStageZero) {
  EXPECT_THROW(Broker(1, 0, net_, transport_, reflect::TypeRegistry::global(), {},
                      util::Rng{1}),
               std::invalid_argument);
}

TEST_F(BrokerTest, AdvertisementStoredAndFlooded) {
  Broker& broker = make_broker(2, {}, 3);
  EXPECT_NE(broker.schema_for("Publication"), nullptr);
  EXPECT_EQ(broker.schema_for("Stock"), nullptr);
  for (const auto& child : child_probes_)
    EXPECT_EQ(child->of<Advertise>().size(), 1u);
}

TEST_F(BrokerTest, Stage1InsertStoresWeakenedFilterAndAccepts) {
  Broker& broker = make_broker(1);
  const ConjunctiveFilter f = pub_filter(2002, "ICDCS", "Eugster", "Cake");
  send(kSub1, Subscribe{f, kSub1, 5});

  // Subscriber accepted with the stage-1 weakened form (title dropped).
  const auto accepted = sub1_->of<AcceptedAt>();
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].node, broker.id());
  EXPECT_EQ(accepted[0].token, 5u);
  ASSERT_EQ(accepted[0].stored.constraints().size(), 3u);
  EXPECT_FALSE(accepted[0].stored.matches(event::EventImage{"Stock", {}}));

  // Table holds <weakened filter, subscriber>.
  const auto table = broker.table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].second, std::vector<sim::NodeId>{kSub1});

  // Parent got the stage-2 form (author dropped too).
  const auto inserts = parent_->of<ReqInsert>();
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(inserts[0].child, broker.id());
  EXPECT_EQ(inserts[0].filter.constraints().size(), 2u);
}

TEST_F(BrokerTest, SimilarSubscriptionsShareOneEntryAndOneUpwardInsert) {
  Broker& broker = make_broker(1);
  // Same (year, conference, author), different titles: identical stage-1
  // weakened forms.
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  send(kSub2, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "B"), kSub2, 1});

  const auto table = broker.table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].second.size(), 2u);
  EXPECT_EQ(parent_->of<ReqInsert>().size(), 1u);
  EXPECT_EQ(broker.stats().associations, 2u);
}

TEST_F(BrokerTest, DissimilarSubscriptionsGetSeparateEntries) {
  Broker& broker = make_broker(1);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  send(kSub2, Subscribe{pub_filter(1999, "SOSP", "Lamport", "B"), kSub2, 1});
  EXPECT_EQ(broker.table().size(), 2u);
  EXPECT_EQ(parent_->of<ReqInsert>().size(), 2u);
}

TEST_F(BrokerTest, EventForwardingMatchesAndFansOut) {
  Broker& broker = make_broker(1);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  send(kSub2, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "B"), kSub2, 1});
  sub1_->clear();
  sub2_->clear();

  const event::EventImage match{"Publication",
                                {{"year", Value{2002}},
                                 {"conference", Value{"ICDCS"}},
                                 {"author", Value{"Eugster"}},
                                 {"title", Value{"A"}}}};
  const event::EventImage miss{"Publication",
                               {{"year", Value{1980}},
                                {"conference", Value{"X"}},
                                {"author", Value{"Y"}},
                                {"title", Value{"Z"}}}};
  send(kParent, EventMsg{match});
  send(kParent, EventMsg{miss});

  // Both subscribers share the weakened entry, so both got the match; the
  // miss was filtered out here.
  EXPECT_EQ(sub1_->of<EventMsg>().size(), 1u);
  EXPECT_EQ(sub2_->of<EventMsg>().size(), 1u);

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.events_received, 2u);
  EXPECT_EQ(stats.events_matched, 1u);
  EXPECT_EQ(stats.events_forwarded, 2u);
}

// An event frame that repeats an attribute name is malformed: a counting
// index would count (a, 1) twice and complete `a == 1 && b == 2` with no b
// at all. The broker drops the frame and counts it, forwarding nothing.
TEST_F(BrokerTest, EventFrameRepeatingAnAttributeNameIsDroppedAsMalformed) {
  Broker& broker = make_broker(1);
  send(kSub1, Subscribe{FilterBuilder{"Ghost"}
                            .where("a", Op::Eq, Value{1})
                            .where("b", Op::Eq, Value{2})
                            .build(),
                        kSub1, 1});
  sub1_->clear();

  send(kParent, EventMsg{event::EventImage{
                    "Ghost", {{"a", Value{1}}, {"a", Value{1}}}}});
  EXPECT_TRUE(sub1_->of<EventMsg>().empty());
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.malformed_packets, 1u);
  EXPECT_EQ(stats.events_forwarded, 0u);
}

TEST_F(BrokerTest, EventMatchingMultipleEntriesDeliversOncePerChild) {
  Broker& broker = make_broker(1);
  // Two different filters for the same subscriber, both matching one event.
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  send(kSub1, Subscribe{FilterBuilder{"Publication"}
                            .where("year", Op::Eq, Value{2002})
                            .build(),
                        kSub1, 2});
  ASSERT_EQ(broker.table().size(), 2u);
  sub1_->clear();

  send(kParent, EventMsg{event::EventImage{"Publication",
                                           {{"year", Value{2002}},
                                            {"conference", Value{"ICDCS"}},
                                            {"author", Value{"Eugster"}},
                                            {"title", Value{"A"}}}}});
  EXPECT_EQ(sub1_->of<EventMsg>().size(), 1u);  // deduplicated fan-out
}

TEST_F(BrokerTest, CoveringSearchRedirectsTowardHostingChild) {
  Broker& broker = make_broker(2, {}, 3);
  // Child broker 11 already hosts a similar (weakened) filter.
  send(11, ReqInsert{FilterBuilder{"Publication"}
                         .where("year", Op::Eq, Value{2002})
                         .where("conference", Op::Eq, Value{"ICDCS"})
                         .build(),
                     11});
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "T"), kSub1, 9});

  const auto joins = sub1_->of<JoinAt>();
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].target, 11u);
  EXPECT_EQ(joins[0].token, 9u);
  EXPECT_EQ(broker.table().size(), 1u);  // nothing stored for the subscriber
}

TEST_F(BrokerTest, NoCoveringRedirectsToSomeChild) {
  make_broker(2, {}, 3);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "T"), kSub1, 4});
  const auto joins = sub1_->of<JoinAt>();
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_GE(joins[0].target, 10u);
  EXPECT_LT(joins[0].target, 13u);
}

TEST_F(BrokerTest, RandomPlacementSkipsCoveringSearch) {
  BrokerConfig config;
  config.placement = Placement::Random;
  make_broker(2, config, 2);
  send(11, ReqInsert{FilterBuilder{"Publication"}
                         .where("year", Op::Eq, Value{2002})
                         .build(),
                     11});
  // Even with a covering entry at child 11, placement stays random; we only
  // check a redirect to *some* child happened (no local insert).
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "T"), kSub1, 4});
  EXPECT_EQ(sub1_->of<JoinAt>().size(), 1u);
  EXPECT_TRUE(sub1_->of<AcceptedAt>().empty());
}

TEST_F(BrokerTest, WildcardOnLeastGeneralAttributeDescends) {
  // Title is used only at stage 0 → topmost stage j = 0 → attach at stage 1.
  make_broker(3, {}, 2);
  ConjunctiveFilter f = FilterBuilder{"Publication"}
                            .where("year", Op::Eq, Value{2002})
                            .where("conference", Op::Eq, Value{"ICDCS"})
                            .where("author", Op::Eq, Value{"Eugster"})
                            .where("title", Op::Any)
                            .build();
  send(kSub1, Subscribe{f, kSub1, 2});
  EXPECT_EQ(sub1_->of<JoinAt>().size(), 1u);  // stage 3 > 1: keep descending
  EXPECT_TRUE(sub1_->of<AcceptedAt>().empty());
}

TEST_F(BrokerTest, WildcardAuthorAttachesAtStageTwo) {
  // Author is used up to stage 1 → topmost j = 1 → attach at stage 2.
  Broker& broker = make_broker(2, {}, 2);
  ConjunctiveFilter f = FilterBuilder{"Publication"}
                            .where("year", Op::Eq, Value{2002})
                            .where("conference", Op::Eq, Value{"ICDCS"})
                            .where("author", Op::Any)
                            .where("title", Op::Any)
                            .build();
  send(kSub1, Subscribe{f, kSub1, 2});
  EXPECT_EQ(sub1_->of<AcceptedAt>().size(), 1u);
  ASSERT_EQ(broker.table().size(), 1u);
  EXPECT_EQ(broker.table()[0].second, std::vector<sim::NodeId>{kSub1});
}

TEST_F(BrokerTest, WildcardEverywhereCapsAtRoot) {
  // Year is used at every stage → j = top stage; a stage-3 root must keep
  // the subscription itself rather than redirect forever.
  Broker& broker = make_broker(3, {}, 2, /*with_parent=*/false);
  ConjunctiveFilter f = FilterBuilder{"Publication"}
                            .where("year", Op::Any)
                            .where("conference", Op::Any)
                            .where("author", Op::Any)
                            .where("title", Op::Any)
                            .build();
  send(kSub1, Subscribe{f, kSub1, 2});
  EXPECT_EQ(sub1_->of<AcceptedAt>().size(), 1u);
  EXPECT_EQ(broker.table().size(), 1u);
}

TEST_F(BrokerTest, UnsubRemovesLeaseAndPropagatesUpward) {
  Broker& broker = make_broker(1);
  const ConjunctiveFilter f = pub_filter(2002, "ICDCS", "Eugster", "A");
  send(kSub1, Subscribe{f, kSub1, 1});
  const auto stored = sub1_->of<AcceptedAt>()[0].stored;
  send(kSub2, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "B"), kSub2, 1});

  send(kSub1, Unsub{stored, kSub1});
  ASSERT_EQ(broker.table().size(), 1u);  // kSub2 still holds the entry
  EXPECT_TRUE(parent_->of<Unsub>().empty());

  send(kSub2, Unsub{stored, kSub2});
  EXPECT_TRUE(broker.table().empty());
  EXPECT_EQ(parent_->of<Unsub>().size(), 1u);  // last lease gone: tell parent
}

TEST_F(BrokerTest, LeasesExpireWithoutRenewal) {
  BrokerConfig config;
  config.ttl = 1'000'000;
  config.renew_interval = 500'000;
  config.reap_interval = 1'000'000;
  Broker& broker = make_broker(1, config);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  ASSERT_EQ(broker.table().size(), 1u);

  // 3×TTL plus a reap interval without renewals: entry must be gone.
  sched_.run_until(sched_.now() + 5'000'000);
  EXPECT_TRUE(broker.table().empty());
}

TEST_F(BrokerTest, RenewalKeepsLeaseAlive) {
  BrokerConfig config;
  config.ttl = 1'000'000;
  config.renew_interval = 500'000;
  config.reap_interval = 1'000'000;
  Broker& broker = make_broker(1, config);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  const auto stored = sub1_->of<AcceptedAt>()[0].stored;

  for (int i = 0; i < 10; ++i) {
    sched_.run_until(sched_.now() + 1'000'000);
    net_.send(kSub1, broker.id(), encode(Packet{Renew{stored, kSub1}}));
    sched_.run();
  }
  EXPECT_EQ(broker.table().size(), 1u);
}

TEST_F(BrokerTest, BrokerRenewsSubmittedFiltersUpward) {
  BrokerConfig config;
  config.ttl = 1'000'000;
  config.renew_interval = 400'000;
  make_broker(1, config);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  parent_->clear();
  sched_.run_until(sched_.now() + 2'000'000);
  // Periodic renewal-by-reinsertion reached the parent several times.
  EXPECT_GE(parent_->of<ReqInsert>().size(), 2u);
}

TEST_F(BrokerTest, NoSchemaFallsBackToIdentityWeakening) {
  make_broker(1);
  const ConjunctiveFilter f = FilterBuilder{"Stock"}  // never advertised here
                                  .where("symbol", Op::Eq, Value{"Foo"})
                                  .where("price", Op::Lt, Value{10.0})
                                  .build();
  send(kSub1, Subscribe{f, kSub1, 1});
  const auto accepted = sub1_->of<AcceptedAt>();
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].stored, f);  // stored exactly, still sound
  const auto inserts = parent_->of<ReqInsert>();
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(inserts[0].filter, f);
}

TEST_F(BrokerTest, ControlTrafficCounted) {
  Broker& broker = make_broker(1);
  send(kSub1, Subscribe{pub_filter(2002, "ICDCS", "Eugster", "A"), kSub1, 1});
  // Advertise + Subscribe are control traffic; events are not.
  EXPECT_EQ(broker.stats().control_received, 2u);
  send(kParent, EventMsg{event::EventImage{"Publication", {}}});
  EXPECT_EQ(broker.stats().control_received, 2u);
  EXPECT_EQ(broker.stats().events_received, 1u);
}

}  // namespace
}  // namespace cake::routing
