// Tests for the embeddable in-process bus: typed dispatch without
// serialization, closure predicates, reentrancy, and multithreaded
// publishing with an exact delivery oracle.
#include "cake/runtime/local_bus.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "cake/workload/generators.hpp"

namespace cake::runtime {
namespace {

using filter::FilterBuilder;
using filter::Op;
using value::Value;
using workload::Auction;
using workload::CarAuction;
using workload::Stock;
using workload::VehicleAuction;

// Parameter: BusOptions::shards (0 = auto-sized; 1 = every class collides).
class LocalBusTest : public ::testing::TestWithParam<std::size_t> {
protected:
  LocalBusTest() : bus_(BusOptions{.shards = GetParam()}) {
    workload::ensure_types_registered();
  }
  LocalBus bus_;
};

TEST_P(LocalBusTest, TypedDeliveryIsTheOriginalObject) {
  const Stock* seen = nullptr;
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build(),
      [&](const Stock& s) { seen = &s; });
  const Stock quote{"Foo", 9.0, 10};
  EXPECT_EQ(bus_.publish(quote), 1u);
  EXPECT_EQ(seen, &quote);  // no copy, no reconstruction
  EXPECT_EQ(bus_.publish(Stock{"Bar", 9.0, 10}), 0u);
}

TEST_P(LocalBusTest, SubtypeDispatchThroughBaseSubscription) {
  int count = 0;
  bus_.subscribe<Auction>(FilterBuilder{}.build(),
                          [&](const Auction&) { ++count; });
  bus_.publish(Auction{"Estate", 1.0});
  bus_.publish(VehicleAuction{2.0, "Van", 3});
  bus_.publish(CarAuction{3.0, 4, 5});
  bus_.publish(Stock{"Foo", 1.0, 1});
  EXPECT_EQ(count, 3);
}

TEST_P(LocalBusTest, StatefulClosurePredicate) {
  std::vector<double> bought;
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}
          .where("symbol", Op::Eq, Value{"Foo"})
          .where("price", Op::Lt, Value{10.0})
          .build(),
      [&](const Stock& s) { bought.push_back(s.price()); },
      [last = 0.0](const Stock& s) mutable {
        const bool dip = last == 0.0 || s.price() <= last * 0.95;
        last = s.price();
        return dip;
      });
  for (double price : {9.0, 8.9, 8.0, 12.0, 7.0})
    bus_.publish(Stock{"Foo", price, 1});
  EXPECT_EQ(bought, (std::vector<double>{9.0, 8.0, 7.0}));
}

TEST_P(LocalBusTest, UnsubscribeStopsDelivery) {
  int count = 0;
  const auto token = bus_.subscribe<Stock>(FilterBuilder{"Stock"}.build(),
                                           [&](const Stock&) { ++count; });
  bus_.publish(Stock{"Foo", 1.0, 1});
  bus_.unsubscribe(token);
  bus_.unsubscribe(token);  // idempotent
  bus_.publish(Stock{"Foo", 1.0, 1});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus_.stats().subscriptions, 0u);
}

TEST_P(LocalBusTest, HandlersMayReenterTheBus) {
  int relayed = 0;
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"RAW"}).build(),
      [&](const Stock& s) {
        // Re-publish a derived event from inside a handler.
        bus_.publish(Stock{"DERIVED", s.price() * 2, s.volume()});
      });
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"DERIVED"}).build(),
      [&](const Stock&) { ++relayed; });
  bus_.publish(Stock{"RAW", 5.0, 1});
  EXPECT_EQ(relayed, 1);

  // Subscribing from a handler must not deadlock either.
  bool added = false;
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"ADDER"}).build(),
      [&](const Stock&) {
        if (!added) {
          bus_.subscribe<Stock>(FilterBuilder{"Stock"}.build(), [](const Stock&) {});
          added = true;
        }
      });
  bus_.publish(Stock{"ADDER", 1.0, 1});
  EXPECT_TRUE(added);
}

TEST_P(LocalBusTest, StatsAccumulate) {
  bus_.subscribe<Stock>(FilterBuilder{"Stock"}.build(), [](const Stock&) {});
  bus_.subscribe<Stock>(FilterBuilder{"Stock"}.build(), [](const Stock&) {});
  bus_.publish(Stock{"Foo", 1.0, 1});
  bus_.publish(Auction{"Estate", 1.0});
  const BusStats stats = bus_.stats();
  EXPECT_EQ(stats.events_published, 2u);
  EXPECT_EQ(stats.events_matched, 1u);
  EXPECT_EQ(stats.deliveries, 2u);
  EXPECT_EQ(stats.subscriptions, 2u);
}

TEST_P(LocalBusTest, ConcurrentPublishersExactCounts) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<std::uint64_t> foo_count{0}, cheap_count{0};
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"Foo"}).build(),
      [&](const Stock&) { foo_count.fetch_add(1, std::memory_order_relaxed); });
  bus_.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("price", Op::Lt, Value{50.0}).build(),
      [&](const Stock&) { cheap_count.fetch_add(1, std::memory_order_relaxed); });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate: Foo@100 (first sub only) and Bar@10 (second only).
        if ((i + t) % 2 == 0)
          bus_.publish(Stock{"Foo", 100.0, 1});
        else
          bus_.publish(Stock{"Bar", 10.0, 1});
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(foo_count.load(), kThreads * kPerThread / 2u);
  EXPECT_EQ(cheap_count.load(), kThreads * kPerThread / 2u);
  EXPECT_EQ(bus_.stats().events_published,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_P(LocalBusTest, ConcurrentChurnDoesNotCrashOrLeakDeliveries) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};
  std::thread churn{[&] {
    while (!stop.load()) {
      const auto token = bus_.subscribe<Stock>(
          FilterBuilder{"Stock"}.build(),
          [&](const Stock&) { delivered.fetch_add(1); });
      bus_.unsubscribe(token);
    }
  }};
  std::uint64_t published = 0;
  for (int i = 0; i < 1'000; ++i) {
    bus_.publish(Stock{"Foo", 1.0, 1});
    ++published;
  }
  stop.store(true);
  churn.join();
  // Deliveries can never exceed publishes (each publish matches ≤ 1 live
  // subscription in this setup).
  EXPECT_LE(delivered.load(), published);
}

INSTANTIATE_TEST_SUITE_P(Shards, LocalBusTest,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{64}),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string{"Auto"}
                                      : std::string{"S"}.append(
                                            std::to_string(info.param));
                         });

}  // namespace
}  // namespace cake::runtime
