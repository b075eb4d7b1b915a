// Multithreaded stress tests for the sharded matching engine and the
// LocalBus built on it. These are the tests the TSan CI job exists for:
// they drive publish/subscribe/unsubscribe from many threads at once and
// assert *exact* delivery — no lost events, no duplicated events — for
// subscriptions that are stable while publishers run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "cake/index/sharded.hpp"
#include "cake/runtime/local_bus.hpp"
#include "cake/workload/types.hpp"

namespace cake {
namespace {

using filter::FilterBuilder;
using filter::Op;
using value::Value;
using workload::Auction;
using workload::CarAuction;
using workload::Publication;
using workload::Stock;
using workload::VehicleAuction;

std::vector<index::FilterId> sorted(std::vector<index::FilterId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// ShardedIndex: pure read concurrency.

TEST(ShardedIndexConcurrency, ParallelMatchersAgreeWithSerialOracle) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();
  index::NaiveTable naive{registry};
  index::ShardedIndex sharded{registry, 8};

  // Mixed population: exact-type, subtype-inclusive (replicated) and
  // accept-all filters, over several event classes.
  std::vector<filter::ConjunctiveFilter> filters;
  for (int i = 0; i < 40; ++i) {
    filters.push_back(FilterBuilder{"Stock"}
                          .where("price", Op::Lt, Value{double(i)})
                          .build());
  }
  filters.push_back(FilterBuilder{"Auction", true}.build());
  filters.push_back(FilterBuilder{"VehicleAuction"}.build());
  filters.push_back(filter::ConjunctiveFilter::accept_all());
  filters.push_back(FilterBuilder{"Publication"}
                        .where("year", Op::Ge, Value{std::int64_t{2000}})
                        .build());
  for (const auto& f : filters) {
    const index::FilterId a = naive.add(f);
    const index::FilterId b = sharded.add(f);
    ASSERT_EQ(a, b);  // dense, aligned id spaces
  }

  std::vector<event::EventImage> events;
  for (int i = 0; i < 32; ++i) {
    events.push_back(event::image_of(Stock{"S", double(i), i}));
    events.push_back(event::image_of(Auction{"lot", double(i)}));
    events.push_back(event::image_of(VehicleAuction{double(i), "Van", 3}));
    events.push_back(event::image_of(CarAuction{double(i), 4, 5}));
    events.push_back(event::image_of(Publication{1990 + i, "ICDCS", "a", "t"}));
  }
  std::vector<std::vector<index::FilterId>> expected;
  for (const auto& image : events) {
    std::vector<index::FilterId> out;
    naive.match(image, out);
    expected.push_back(sorted(std::move(out)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      index::MatchScratch scratch;
      std::vector<index::FilterId> out;
      for (int round = 0; round < 50; ++round) {
        for (std::size_t e = 0; e < events.size(); ++e) {
          sharded.match(events[e], out, scratch);
          if (sorted(out) != expected[e])
            mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Every match() consulted exactly one shard.
  const auto stats = sharded.shard_stats();
  const std::uint64_t total = std::accumulate(
      stats.begin(), stats.end(), std::uint64_t{0},
      [](std::uint64_t acc, const index::ShardStats& s) { return acc + s.matches; });
  EXPECT_EQ(total, 8u * 50u * events.size());
}

// ---------------------------------------------------------------------------
// ShardedIndex: matchers racing writers. Stable filters must appear in
// every result; churned filters may or may not, but nothing else.

TEST(ShardedIndexConcurrency, MatchersSeeStableFiltersDuringChurn) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();
  index::ShardedIndex sharded{registry, 8};

  const index::FilterId stable_stock =
      sharded.add(FilterBuilder{"Stock"}.build());
  const index::FilterId stable_broad =
      sharded.add(FilterBuilder{"Auction", true}.build());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> matchers;
  for (int t = 0; t < 3; ++t) {
    matchers.emplace_back([&] {
      index::MatchScratch scratch;
      std::vector<index::FilterId> out;
      const auto stock = event::image_of(Stock{"S", 1.0, 1});
      const auto car = event::image_of(CarAuction{1.0, 4, 2});
      while (!stop.load(std::memory_order_acquire)) {
        sharded.match(stock, out, scratch);
        if (std::find(out.begin(), out.end(), stable_stock) == out.end())
          violations.fetch_add(1, std::memory_order_relaxed);
        sharded.match(car, out, scratch);
        if (std::find(out.begin(), out.end(), stable_broad) == out.end())
          violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) {
    churners.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        // Alternate pinned and replicated (broad) filters so both add
        // paths race the matchers.
        const index::FilterId id =
            (i + t) % 2 == 0
                ? sharded.add(FilterBuilder{"Stock"}
                                  .where("price", Op::Gt, Value{double(i)})
                                  .build())
                : sharded.add(FilterBuilder{"Auction", true}
                                  .where("price", Op::Lt, Value{double(i)})
                                  .build());
        sharded.remove(id);
      }
    });
  }
  for (auto& thread : churners) thread.join();
  stop.store(true, std::memory_order_release);
  for (auto& thread : matchers) thread.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(sharded.size(), 2u);
}

// ---------------------------------------------------------------------------
// LocalBus: the delivery oracle. Publishers fan events of several classes
// through the bus while other threads churn subscriptions; every stable
// subscription must end up with exactly the events its filter selects —
// each one exactly once.

class ConcurrentBusTest : public ::testing::Test {
protected:
  static runtime::BusOptions options() {
    runtime::BusOptions options;
    options.shards = 8;
    return options;
  }
};

TEST_F(ConcurrentBusTest, StressNoLostOrDuplicatedDeliveries) {
  workload::ensure_types_registered();
  runtime::LocalBus bus{options()};

  constexpr int kPublishers = 4;
  constexpr int kEventsPerPublisher = 300;

  struct Ledger {
    std::mutex mutex;
    std::vector<std::int64_t> ids;
    void record(std::int64_t id) {
      std::lock_guard lock{mutex};
      ids.push_back(id);
    }
    std::vector<std::int64_t> sorted_ids() {
      std::lock_guard lock{mutex};
      auto copy = ids;
      std::sort(copy.begin(), copy.end());
      return copy;
    }
  };
  Ledger all_stocks, s1_stocks, auctions, vehicles;

  // Stable subscriptions, in place before any publisher starts.
  bus.subscribe<Stock>(FilterBuilder{"Stock"}.build(), [&](const Stock& s) {
    all_stocks.record(s.volume());
  });
  bus.subscribe<Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{"S1"}).build(),
      [&](const Stock& s) { s1_stocks.record(s.volume()); });
  bus.subscribe<Auction>(FilterBuilder{"Auction", true}.build(),
                         [&](const Auction& a) {
                           auctions.record(static_cast<std::int64_t>(a.price()));
                         });
  bus.subscribe<VehicleAuction>(FilterBuilder{"VehicleAuction"}.build(),
                                [&](const VehicleAuction& v) {
                                  vehicles.record(v.capacity());
                                });

  // Deterministic per-publisher schedule; `id` is globally unique and is
  // carried in an attribute each ledger can read back.
  std::atomic<bool> publishers_done{false};
  std::vector<std::thread> publishers;
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&bus, t] {
      for (int i = 0; i < kEventsPerPublisher; ++i) {
        const std::int64_t id = std::int64_t{t} * kEventsPerPublisher + i;
        switch (i % 3) {
          case 0:
            bus.publish(Stock{i % 2 == 0 ? "S1" : "S2", 10.0, id});
            break;
          case 1:
            bus.publish(Auction{"lot", static_cast<double>(id)});
            break;
          default:
            bus.publish(VehicleAuction{static_cast<double>(id), "Van", id});
            break;
        }
      }
    });
  }

  // Subscription churn racing the publishers (never asserted on — they
  // exist to hammer the writer paths of the same shards).
  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) {
    churners.emplace_back([&] {
      while (!publishers_done.load(std::memory_order_acquire)) {
        const auto token = bus.subscribe<Stock>(
            FilterBuilder{"Stock"}.where("price", Op::Gt, Value{1e9}).build(),
            [](const Stock&) {});
        bus.unsubscribe(token);
      }
    });
  }

  for (auto& thread : publishers) thread.join();
  publishers_done.store(true, std::memory_order_release);
  for (auto& thread : churners) thread.join();

  // Reconstruct the expected id sets from the schedule.
  std::vector<std::int64_t> expect_stocks, expect_s1, expect_auctions,
      expect_vehicles;
  for (int t = 0; t < kPublishers; ++t) {
    for (int i = 0; i < kEventsPerPublisher; ++i) {
      const std::int64_t id = std::int64_t{t} * kEventsPerPublisher + i;
      switch (i % 3) {
        case 0:
          expect_stocks.push_back(id);
          if (i % 2 == 0) expect_s1.push_back(id);
          break;
        case 1:
          expect_auctions.push_back(id);
          break;
        default:
          expect_auctions.push_back(id);  // subtype-inclusive filter
          expect_vehicles.push_back(id);
          break;
      }
    }
  }
  std::sort(expect_stocks.begin(), expect_stocks.end());
  std::sort(expect_s1.begin(), expect_s1.end());
  std::sort(expect_auctions.begin(), expect_auctions.end());
  std::sort(expect_vehicles.begin(), expect_vehicles.end());

  EXPECT_EQ(all_stocks.sorted_ids(), expect_stocks);
  EXPECT_EQ(s1_stocks.sorted_ids(), expect_s1);
  EXPECT_EQ(auctions.sorted_ids(), expect_auctions);
  EXPECT_EQ(vehicles.sorted_ids(), expect_vehicles);

  EXPECT_EQ(bus.stats().events_published,
            std::uint64_t{kPublishers} * kEventsPerPublisher);
  // Observability invariant: every publish consulted exactly one shard.
  const auto shards = bus.shard_stats();
  const std::uint64_t matches = std::accumulate(
      shards.begin(), shards.end(), std::uint64_t{0},
      [](std::uint64_t acc, const index::ShardStats& s) {
        return acc + s.matches;
      });
  EXPECT_EQ(matches, bus.stats().events_published);
}

// subscribe() and unsubscribe() must be immediately effective for the
// calling thread even while other threads publish into the same shard.
TEST_F(ConcurrentBusTest, SubscribeUnsubscribeLinearizeAgainstOwnPublishes) {
  workload::ensure_types_registered();
  runtime::LocalBus bus{options()};

  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, &failures, t] {
      const std::string symbol = std::string{"T"}.append(std::to_string(t));
      std::atomic<std::uint64_t> count{0};
      for (int round = 0; round < kRounds; ++round) {
        const auto token = bus.subscribe<Stock>(
            FilterBuilder{"Stock"}.where("symbol", Op::Eq, Value{symbol}).build(),
            [&count](const Stock&) {
              count.fetch_add(1, std::memory_order_relaxed);
            });
        bus.publish(Stock{symbol, 1.0, round});  // must deliver: same thread
        bus.unsubscribe(token);
        bus.publish(Stock{symbol, 2.0, round});  // must not start a delivery
        if (count.load(std::memory_order_relaxed) !=
            static_cast<std::uint64_t>(round) + 1)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace cake
