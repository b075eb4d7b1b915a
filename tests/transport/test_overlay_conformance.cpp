// Two-backend overlay conformance (DESIGN.md §14): the same seeded
// workload driven through a Sim-backed overlay and a Threaded-backed
// overlay must agree on every order-independent observable — the delivery
// multiset per subscriber, the broker-table fixpoint, and the network's
// conservation law. The sim run is the oracle; the threaded run must
// reproduce it while TSan watches (this file carries the blocking
// `threaded` ctest label).
//
// Every closure the workload runs on a lane (publishes, subscriber
// callbacks, the reads after quiescence) also counts how deeply such work
// nests on its thread: a lane runs one task at a time, to completion, so
// the depth must never pass 1, however small the lane queues are.
//
// What is deliberately NOT compared: anything arrival-order dependent.
// Join redirects draw from each broker's rng, so with fan-out > 1 the
// *hosting leaf* of a subscription may differ across backends — the
// delivery multiset cannot (exact end-to-end filters are per-event
// deterministic), and on a chain topology (fan-out 1) the full table
// contents must match byte for byte.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cake/event/event.hpp"
#include "cake/filter/filter.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/workload/generators.hpp"
#include "cake/workload/types.hpp"

namespace cake::routing {
namespace {

using filter::FilterBuilder;
using filter::Op;
using value::Value;

struct SubSpec {
  const char* symbol;
  double max_price;
};

constexpr SubSpec kSubs[] = {
    {"AAA", 50.0}, {"BBB", 25.0}, {"CCC", 75.0},
    {"DDD", 100.0}, {"AAA", 10.0}, {"BBB", 90.0},
};
constexpr const char* kSymbols[] = {"AAA", "BBB", "CCC", "DDD"};
constexpr int kEvents = 240;

/// Deepest nesting of lane work seen on any thread in the current run.
std::atomic<int> g_max_depth{0};

/// Marks one closure running on a lane for the run's nesting count.
class DepthProbe {
public:
  DepthProbe() {
    const int now = ++depth_;
    int seen = g_max_depth.load();
    while (now > seen && !g_max_depth.compare_exchange_weak(seen, now)) {
    }
  }
  ~DepthProbe() { --depth_; }
  DepthProbe(const DepthProbe&) = delete;
  DepthProbe& operator=(const DepthProbe&) = delete;

private:
  static thread_local int depth_;
};
thread_local int DepthProbe::depth_ = 0;

/// Order-independent observables of one workload run.
struct RunResult {
  std::vector<std::vector<std::int64_t>> delivered;  // per subscriber, sorted
  std::vector<std::string> tables;                   // canonical, per broker
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_delivered = 0;
  std::uint64_t fabric_undeliverable = 0;
  std::vector<SubscriberNode::SubscriptionView> views;  // all subscribers
  std::vector<sim::NodeId> view_owner;                  // parallel to views
  int max_depth = 0;  ///< deepest nesting of lane closures on one thread
  std::uint64_t deferred = 0;  ///< posts a lane worker parked in its outbox
};

OverlayConfig conformance_config(OverlayBackend backend,
                                 link::Reliability reliability,
                                 std::vector<std::size_t> stages) {
  OverlayConfig config;
  config.stage_counts = std::move(stages);
  config.backend = backend;
  config.link.reliability = reliability;
  // The threaded backend runs on the wall clock, so push every soft-state
  // deadline far past the test's lifetime: lease churn, renewals and
  // failure detection are pinned by the sim-only chaos suites, and letting
  // them fire mid-run would make the two backends diverge on timing alone.
  config.broker.ttl = 3'600'000'000;
  config.broker.renew_interval = 1'800'000'000;
  config.broker.reap_interval = 1'800'000'000;
  config.subscriber.renew_interval = 1'800'000'000;
  config.subscriber.auto_renew = false;
  config.link.heartbeat_interval = 1'800'000'000;
  // Reliable arm: drain() waits for foreground work only, and a frame pended
  // on a full send window is released by a *background* ACK timer — so size
  // the window past the whole workload and push RTO out of reach. The arm
  // then pins the tagged seq/ack/dedup path itself, with no wall-clock timer
  // in the loop.
  config.link.window = 8192;
  config.link.rto_initial = 1'800'000'000;
  config.link.rto_max = 3'600'000'000;
  // rto_max == ttl deliberately violates the startup rule 4·rto_max ≤ ttl:
  // this suite wants *no* timer to fire, which is exactly the regime the
  // validation exists to reject in real configurations.
  config.validate = false;
  return config;
}

std::string canonical_table(Broker& broker) {
  std::vector<std::string> rows;
  for (auto& [form, children] : broker.table()) {
    std::vector<sim::NodeId> kids = children;
    std::sort(kids.begin(), kids.end());
    std::string row = form.to_string();
    for (const sim::NodeId kid : kids) {
      row += '|';
      row += std::to_string(kid);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

/// `queue_capacity` 0 keeps the ThreadedOptions default; `credit` turns on
/// receiver credit on reliable links.
RunResult run_workload(OverlayBackend backend, link::Reliability reliability,
                       std::vector<std::size_t> stages,
                       std::size_t queue_capacity = 0, bool credit = false) {
  workload::ensure_types_registered();
  OverlayConfig config =
      conformance_config(backend, reliability, std::move(stages));
  if (queue_capacity > 0) config.threaded.queue_capacity = queue_capacity;
  config.link.credit = credit;
  g_max_depth = 0;
  Overlay overlay{std::move(config)};

  PublisherNode& pub_a = overlay.add_publisher();
  PublisherNode& pub_b = overlay.add_publisher();
  overlay.run_on(pub_a.id(),
                 [&] { pub_a.advertise(workload::StockGenerator::schema()); });
  overlay.run_on(pub_b.id(),
                 [&] { pub_b.advertise(workload::StockGenerator::schema()); });
  overlay.run();

  const std::size_t n_subs = std::size(kSubs);
  std::vector<SubscriberNode*> subs;
  // One sink per subscriber, written only by that subscriber's handler
  // (its own lane); read back through run_on after quiescence.
  auto sinks = std::make_unique<std::vector<std::int64_t>[]>(n_subs);
  for (std::size_t s = 0; s < n_subs; ++s) {
    SubscriberNode& sub = overlay.add_subscriber();
    subs.push_back(&sub);
    std::vector<std::int64_t>* sink = &sinks[s];
    overlay.run_on(sub.id(), [&sub, sink, s] {
      sub.subscribe(FilterBuilder{"Stock"}
                        .where("symbol", Op::Eq, Value{kSubs[s].symbol})
                        .where("price", Op::Lt, Value{kSubs[s].max_price})
                        .build(),
                    [sink](const event::EventImage& e) {
                      const DepthProbe probe;
                      sink->push_back(e.find("volume")->as_int());
                    });
    });
  }
  overlay.run();  // join handshakes settle

  for (int i = 0; i < kEvents; ++i) {
    const char* symbol = kSymbols[i % std::size(kSymbols)];
    const double price = static_cast<double>((i * 7) % 101);
    PublisherNode& pub = (i % 2 == 0) ? pub_a : pub_b;
    overlay.post_on(pub.id(), [&pub, symbol, price, i] {
      const DepthProbe probe;
      pub.publish(event::image_of(workload::Stock{symbol, price, i}));
    });
  }
  overlay.run();

  RunResult result;
  for (std::size_t s = 0; s < n_subs; ++s) {
    // Read on the owning lane: the sink and the subscription views belong
    // to the subscriber's single-writer state.
    overlay.run_on(subs[s]->id(), [&, s] {
      const DepthProbe probe;
      std::vector<std::int64_t> sorted = sinks[s];
      std::sort(sorted.begin(), sorted.end());
      result.delivered.push_back(std::move(sorted));
      for (auto& view : subs[s]->subscription_views()) {
        result.views.push_back(std::move(view));
        result.view_owner.push_back(subs[s]->id());
      }
    });
  }
  for (const auto& broker : overlay.brokers()) {
    overlay.run_on(broker->id(), [&result, &b = *broker] {
      result.tables.push_back(canonical_table(b));
    });
  }
  // The lane-local inbox counters are exact only at quiescence. Best-effort
  // runs are quiescent after drain(); reliable runs may still have
  // background ACK/RTO timers firing, so skip the read there (no test
  // consumes it for the reliable arm).
  if (reliability == link::Reliability::BestEffort) {
    result.fabric_messages = overlay.network().total_messages();
    result.fabric_delivered = overlay.network().delivered();
    result.fabric_undeliverable = overlay.network().undeliverable();
  }
  result.max_depth = g_max_depth.load();
  result.deferred = overlay.network().help_drained();
  return result;
}

/// True when some row of `table` (canonical form above) stores `form` with
/// `owner` among its children. Children are `|`-delimited, so the owner id
/// must match a whole token, not a digit prefix.
bool table_hosts(const std::string& table, const std::string& form,
                 sim::NodeId owner) {
  const std::string token = '|' + std::to_string(owner);
  std::size_t pos = 0;
  while (pos < table.size()) {
    std::size_t end = table.find('\n', pos);
    if (end == std::string::npos) end = table.size();
    const std::string_view line{table.data() + pos, end - pos};
    pos = end + 1;
    if (line.size() <= form.size() || line.substr(0, form.size()) != form ||
        line[form.size()] != '|')
      continue;
    const std::string_view kids = line.substr(form.size());
    for (std::size_t p = kids.find(token); p != std::string_view::npos;
         p = kids.find(token, p + 1)) {
      const std::size_t after = p + token.size();
      if (after == kids.size() || kids[after] == '|') return true;
    }
  }
  return false;
}

/// Expected per-subscriber volumes computed directly from the specs — an
/// oracle independent of either backend.
std::vector<std::vector<std::int64_t>> expected_deliveries() {
  std::vector<std::vector<std::int64_t>> expected(std::size(kSubs));
  for (int i = 0; i < kEvents; ++i) {
    const char* symbol = kSymbols[i % std::size(kSymbols)];
    const double price = static_cast<double>((i * 7) % 101);
    for (std::size_t s = 0; s < std::size(kSubs); ++s)
      if (symbol == std::string_view{kSubs[s].symbol} &&
          price < kSubs[s].max_price)
        expected[s].push_back(i);
  }
  return expected;
}

TEST(OverlayConformance, DeliveryMultisetMatchesSimOracleBestEffort) {
  const RunResult sim = run_workload(OverlayBackend::Sim,
                                     link::Reliability::BestEffort, {1, 2, 4});
  const RunResult threaded = run_workload(
      OverlayBackend::Threaded, link::Reliability::BestEffort, {1, 2, 4});
  EXPECT_EQ(sim.delivered, expected_deliveries());
  EXPECT_EQ(threaded.delivered, sim.delivered);
}

TEST(OverlayConformance, DeliveryMultisetMatchesSimOracleReliable) {
  const RunResult sim = run_workload(OverlayBackend::Sim,
                                     link::Reliability::Reliable, {1, 2, 4});
  const RunResult threaded = run_workload(
      OverlayBackend::Threaded, link::Reliability::Reliable, {1, 2, 4});
  EXPECT_EQ(sim.delivered, expected_deliveries());
  EXPECT_EQ(threaded.delivered, sim.delivered);
}

// The smallest lane queue: nearly every publish, forward and delivery finds
// its target queue full and waits in an outbox. Deliveries still match the
// Sim control, and no lane closure ever runs inside another.
TEST(OverlayConformance, TwoSlotLaneQueuesNeverNestAndMatchSimOracle) {
  const RunResult sim = run_workload(OverlayBackend::Sim,
                                     link::Reliability::BestEffort, {1, 2, 4});
  const RunResult threaded =
      run_workload(OverlayBackend::Threaded, link::Reliability::BestEffort,
                   {1, 2, 4}, /*queue_capacity=*/2);
  EXPECT_EQ(threaded.delivered, sim.delivered);
  EXPECT_EQ(threaded.max_depth, 1);
  EXPECT_GT(threaded.deferred, 0u);
}

// Reliable links with receiver credit through small lane queues: credit
// grants, ACKs and events all cross lanes as deferred frames, and the
// multiset still matches the Sim control run with the same links.
TEST(OverlayConformance, ReliableCreditThroughSmallLaneQueuesMatchesSimOracle) {
  const RunResult sim =
      run_workload(OverlayBackend::Sim, link::Reliability::Reliable, {1, 2, 4},
                   /*queue_capacity=*/0, /*credit=*/true);
  const RunResult threaded =
      run_workload(OverlayBackend::Threaded, link::Reliability::Reliable,
                   {1, 2, 4}, /*queue_capacity=*/8, /*credit=*/true);
  EXPECT_EQ(sim.delivered, expected_deliveries());
  EXPECT_EQ(threaded.delivered, sim.delivered);
  EXPECT_EQ(threaded.max_depth, 1);
}

TEST(OverlayConformance, ChainTopologyTablesReachTheSameFixpoint) {
  // Fan-out 1 at every stage removes the rng from join routing, so the
  // broker tables themselves — not just the deliveries — must be
  // byte-identical across backends.
  const RunResult sim = run_workload(
      OverlayBackend::Sim, link::Reliability::BestEffort, {1, 1, 1});
  const RunResult threaded = run_workload(
      OverlayBackend::Threaded, link::Reliability::BestEffort, {1, 1, 1});
  EXPECT_EQ(threaded.tables, sim.tables);
  EXPECT_EQ(threaded.delivered, sim.delivered);
}

TEST(OverlayConformance, ThreadedTablesSatisfyTheFixpointInvariant) {
  // Fan-out topology: hosting leaves may differ from the sim run, but the
  // chaos-style fixpoint must hold *within* the threaded run — every
  // accepted subscription's (parent, stored form) appears in that parent's
  // table with the subscriber as a child.
  const RunResult threaded = run_workload(
      OverlayBackend::Threaded, link::Reliability::BestEffort, {1, 2, 4});
  ASSERT_FALSE(threaded.views.empty());
  for (std::size_t v = 0; v < threaded.views.size(); ++v) {
    const auto& view = threaded.views[v];
    ASSERT_TRUE(view.parent.has_value());
    const std::string form = view.stored.to_string();
    bool found = false;
    for (const std::string& table : threaded.tables)
      found |= table_hosts(table, form, threaded.view_owner[v]);
    EXPECT_TRUE(found) << "no broker table hosts " << form << " for subscriber "
                       << threaded.view_owner[v];
  }
}

TEST(OverlayConformance, FabricAccountingObeysConservation) {
  const RunResult threaded = run_workload(
      OverlayBackend::Threaded, link::Reliability::BestEffort, {1, 2, 4});
  // No loss, no duplication, no detached nodes in fabric mode: every
  // message sent is delivered.
  EXPECT_GT(threaded.fabric_messages, 0u);
  EXPECT_EQ(threaded.fabric_delivered + threaded.fabric_undeliverable,
            threaded.fabric_messages);
  EXPECT_EQ(threaded.fabric_undeliverable, 0u);
}

}  // namespace
}  // namespace cake::routing
