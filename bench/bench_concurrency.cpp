// Experiments A12 + A19 — concurrent publish throughput of LocalBus, and
// the broker overlay on ThreadedTransport.
//
// Measures N publisher threads pushing events through one bus's sharded
// matching engine (per-shard reader–writer snapshot), against the same bus
// driven by one thread.
//
// Two workloads:
//   * multi-type — each publisher owns a distinct event class, so in the
//     sharded bus the threads (almost) never touch the same shard;
//   * same-type  — every publisher publishes Stock, so all threads take
//     the SAME shard's lock, but only in shared mode: matching still
//     proceeds concurrently on per-thread scratch state.
//
// Expected shape: throughput scales with cores. On a single-core host it
// is flat — the "vs 1 thread" column is only meaningful with
// hardware_concurrency ≥ the thread count.
//
// A19 (threaded overlay data plane) drives a full multi-broker hierarchy —
// publishers → root → inner stage → leaves → subscribers — end-to-end on
// ThreadedTransport, sweeping workers 1/2/4/8. Every arm's per-subscriber
// delivery multiset is pinned against a Sim-backend control run of the
// same seed (exit 1 on divergence), and on multi-core hosts the 4-worker
// arm must clear 1.5x the single-worker arm. Writes BENCH_overlay.json.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cake/event/event.hpp"
#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/runtime/local_bus.hpp"
#include "cake/util/table.hpp"
#include "cake/workload/generators.hpp"
#include "cake/workload/types.hpp"

namespace {

// Counting operator-new interposer for the allocs/event column of A19.
// One relaxed fetch_add per allocation; the measured hot paths are
// (near-)allocation-free, so the tax on the throughput columns is noise.
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

void* bench_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return bench_alloc(size); }
void* operator new[](std::size_t size) { return bench_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cake;
using filter::FilterBuilder;
using filter::Op;
using value::Value;

constexpr std::size_t kShards = 16;
constexpr int kFiltersPerType = 200;

// The four classes publishers cycle through; hashed to distinct shards
// with high probability at kShards = 16.
const char* const kTypes[] = {"Stock", "Auction", "CarAuction", "Publication"};

void populate(runtime::LocalBus& bus, std::atomic<std::uint64_t>& delivered) {
  const auto handler = [&delivered](const event::Event&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  for (const char* type : kTypes) {
    for (int i = 0; i < kFiltersPerType; ++i) {
      // Price/year bounds arranged so a small fraction of filters match
      // each event — realistic selective subscriptions, non-trivial
      // counting work per match call.
      if (std::string{type} == "Publication") {
        bus.subscribe(FilterBuilder{type}
                          .where("year", Op::Le, Value{std::int64_t{1900 + i}})
                          .build(),
                      handler);
      } else {
        bus.subscribe(FilterBuilder{type}
                          .where("price", Op::Lt, Value{double(i)})
                          .build(),
                      handler);
      }
    }
  }
}

void publish_one(runtime::LocalBus& bus, const char* type, int i) {
  const double price = double(i % kFiltersPerType);
  switch (type[0]) {
    case 'S':
      bus.publish(workload::Stock{"SYM", price, i});
      break;
    case 'A':
      bus.publish(workload::Auction{"lot", price});
      break;
    case 'C':
      bus.publish(workload::CarAuction{price, 5, 4});
      break;
    default:
      bus.publish(workload::Publication{1900 + (i % kFiltersPerType), "ICDCS",
                                        "author", "title"});
      break;
  }
}

struct Run {
  double events_per_sec = 0.0;
  std::uint64_t delivered = 0;
};

Run run_workload(bool multi_type, int threads, int events_per_thread,
                 std::vector<index::ShardStats>* shards_out = nullptr) {
  runtime::BusOptions options;
  options.shards = kShards;
  runtime::LocalBus bus{options};
  std::atomic<std::uint64_t> delivered{0};
  populate(bus, delivered);

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> publishers;
  publishers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    publishers.emplace_back([&, t] {
      const char* type = multi_type ? kTypes[t % 4] : "Stock";
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < events_per_thread; ++i) publish_one(bus, type, i);
    });
  }
  while (ready.load(std::memory_order_acquire) != threads)
    std::this_thread::yield();

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : publishers) thread.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  if (shards_out != nullptr) *shards_out = bus.shard_stats();
  const double total = double(threads) * double(events_per_thread);
  return Run{total / elapsed.count(), delivered.load()};
}

/// Scoped CAKE_THREADS pin so the sweep really runs `workers` lanes even
/// on hosts with fewer cores (the bench is explicit opt-in load).
class ThreadsEnvPin {
public:
  explicit ThreadsEnvPin(std::size_t workers) {
    if (const char* old = std::getenv("CAKE_THREADS")) previous_ = old;
    ::setenv("CAKE_THREADS", std::to_string(workers).c_str(), 1);
  }
  ~ThreadsEnvPin() {
    if (previous_.empty())
      ::unsetenv("CAKE_THREADS");
    else
      ::setenv("CAKE_THREADS", previous_.c_str(), 1);
  }

private:
  std::string previous_;
};

// ---- A19: broker overlay on ThreadedTransport -------------------------

constexpr std::size_t kOverlayPublishers = 4;
constexpr std::size_t kOverlaySubscribers = 8;
const char* const kOverlaySymbols[] = {"AAA", "BBB", "CCC", "DDD"};

/// Order-independent summary of one subscriber's deliveries: count plus a
/// commutative hash over the unique per-event volume tag. Two runs saw the
/// same multiset iff their digests match.
struct SubDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t hash = 0;

  void add(std::uint64_t volume) noexcept {
    ++count;
    sum += volume;
    // Commutative mix (xor of a bijective scramble): order-insensitive,
    // collision-resistant enough for a conformance pin.
    std::uint64_t x = volume + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    hash ^= x ^ (x >> 31);
  }
  bool operator==(const SubDigest&) const = default;
};

struct OverlayRun {
  std::size_t workers = 0;
  double events_per_sec = 0.0;
  std::uint64_t delivered = 0;
  double allocs_per_event = 0.0;
  std::vector<SubDigest> digests;
};

OverlayRun run_overlay(routing::OverlayBackend backend, std::size_t workers,
                       int events) {
  const ThreadsEnvPin pin{workers};
  routing::OverlayConfig config;
  config.stage_counts = {1, 2, 4};
  config.backend = backend;
  config.threaded.workers = workers;
  // Real-clock safety: push every periodic deadline past the run so the
  // data plane is the only thing the wall clock sees (the lease machinery
  // is pinned by the sim-backend chaos suites).
  config.broker.ttl = 3'600'000'000;
  config.broker.renew_interval = 1'800'000'000;
  config.broker.reap_interval = 1'800'000'000;
  config.subscriber.renew_interval = 1'800'000'000;
  config.subscriber.auto_renew = false;
  config.link.heartbeat_interval = 1'800'000'000;
  routing::Overlay overlay{config};

  std::vector<routing::PublisherNode*> pubs;
  for (std::size_t p = 0; p < kOverlayPublishers; ++p) {
    routing::PublisherNode& pub = overlay.add_publisher();
    overlay.run_on(pub.id(), [&pub] {
      pub.advertise(workload::StockGenerator::schema());
    });
    pubs.push_back(&pub);
  }
  overlay.run();

  // 8 subscribers, 2 per symbol at different selectivities: every event
  // matches a known subset, and the unique volume tag keys the multiset.
  auto digests = std::make_unique<SubDigest[]>(kOverlaySubscribers);
  for (std::size_t s = 0; s < kOverlaySubscribers; ++s) {
    routing::SubscriberNode& sub = overlay.add_subscriber();
    SubDigest* digest = &digests[s];
    overlay.run_on(sub.id(), [&sub, digest, s] {
      sub.subscribe(
          FilterBuilder{"Stock"}
              .where("symbol", Op::Eq, Value{kOverlaySymbols[s % 4]})
              .where("price", Op::Lt, Value{s < 4 ? 50.0 : 101.0})
              .build(),
          [digest](const event::EventImage& e) {
            digest->add(static_cast<std::uint64_t>(
                e.find("volume")->as_int()));
          });
    });
  }
  overlay.run();  // join handshakes settle

  // Each publisher loops on its own lane: the injection is one task per
  // publisher, so the measured window is pure data-plane work.
  const std::uint64_t allocs_before = allocs();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < kOverlayPublishers; ++p) {
    routing::PublisherNode* pub = pubs[p];
    overlay.post_on(pub->id(), [pub, p, events] {
      for (int i = static_cast<int>(p); i < events;
           i += static_cast<int>(kOverlayPublishers)) {
        pub->publish(event::image_of(workload::Stock{
            kOverlaySymbols[i % 4], double((i * 7) % 101), i}));
      }
    });
  }
  overlay.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const std::uint64_t allocs_after = allocs();

  // Post-drain reads are quiescence-exact: the foreground handshake in
  // drain() orders every lane's writes before this thread's reads.
  OverlayRun run;
  run.workers = workers;
  run.events_per_sec = double(events) / elapsed.count();
  run.allocs_per_event =
      double(allocs_after - allocs_before) / double(events);
  run.digests.assign(digests.get(), digests.get() + kOverlaySubscribers);
  for (const SubDigest& d : run.digests) run.delivered += d.count;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const int events_per_thread = argc > 1 ? std::atoi(argv[1]) : 20'000;
  if (events_per_thread <= 0) {
    std::cerr << "usage: " << argv[0]
              << " [events_per_thread > 0]  (got '" << argv[1] << "')\n";
    return 2;
  }
  workload::ensure_types_registered();

  std::cout << "=== A12: Concurrent publish throughput, sharded "
               "matching ===\n"
            << "4 event classes x " << kFiltersPerType << " filters, "
            << kShards << " shards, " << events_per_thread
            << " events/thread (hardware_concurrency = "
            << std::thread::hardware_concurrency() << ")\n\n";

  double speedup_at_4 = 0.0;
  for (const bool multi_type : {true, false}) {
    std::cout << (multi_type
                      ? "-- Multi-type workload (publishers on distinct "
                        "classes, distinct shards) --\n"
                      : "-- Same-type workload (all publishers on Stock, one "
                        "shared shard) --\n");
    util::TextTable table{
        {"Threads", "Sharded ev/s", "vs 1 thread", "Deliveries"}};
    double single_thread = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      std::vector<index::ShardStats> shards;
      const Run sharded =
          run_workload(multi_type, threads, events_per_thread, &shards);
      if (threads == 1) single_thread = sharded.events_per_sec;
      const double speedup = sharded.events_per_sec / single_thread;
      if (multi_type && threads == 4) speedup_at_4 = speedup;
      table.add_row({std::to_string(threads),
                     util::format_number(sharded.events_per_sec),
                     util::format_number(speedup),
                     std::to_string(sharded.delivered)});
      if (!multi_type && threads == 4) {
        std::cout << "shard imbalance at 4 threads: "
                  << util::format_number(metrics::shard_imbalance(shards))
                  << " (same-type: all traffic on one shard is expected)\n";
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "multi-type speedup at 4 publisher threads vs 1: "
            << util::format_number(speedup_at_4) << "x\n";

  // ---- A19: broker overlay on ThreadedTransport -----------------------
  std::cout << "\n=== A19: Broker overlay end-to-end on ThreadedTransport ===\n"
            << "stages {1,2,4}, " << kOverlayPublishers << " publishers, "
            << kOverlaySubscribers << " subscribers, " << events_per_thread
            << " events total\n\n";

  // One Sim-backend control run pins the semantics: every threaded arm
  // must reproduce its per-subscriber delivery multiset exactly.
  const OverlayRun sim_control =
      run_overlay(routing::OverlayBackend::Sim, 1, events_per_thread);

  util::TextTable overlay_table{
      {"Workers", "Overlay ev/s", "Delivered", "Allocs/event", "Multiset"}};
  std::vector<OverlayRun> overlay_runs;
  bool overlay_ok = true;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const OverlayRun run =
        run_overlay(routing::OverlayBackend::Threaded, workers,
                    events_per_thread);
    const bool multiset_ok = run.digests == sim_control.digests;
    overlay_ok = overlay_ok && multiset_ok;
    overlay_table.add_row({std::to_string(run.workers),
                           util::format_number(run.events_per_sec),
                           std::to_string(run.delivered),
                           util::format_number(run.allocs_per_event),
                           multiset_ok ? "== sim" : "DIVERGED"});
    if (!multiset_ok) {
      std::cout << "MULTISET MISMATCH at " << workers
                << " workers: threaded delivered " << run.delivered
                << ", sim control delivered " << sim_control.delivered
                << "\n";
    }
    overlay_runs.push_back(run);
  }
  overlay_table.print(std::cout);

  const double overlay_speedup_4v1 =
      overlay_runs.size() >= 3 && overlay_runs[0].events_per_sec > 0.0
          ? overlay_runs[2].events_per_sec / overlay_runs[0].events_per_sec
          : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "\noverlay speedup, 4 workers vs 1: "
            << util::format_number(overlay_speedup_4v1)
            << "x (sim control: "
            << util::format_number(sim_control.events_per_sec)
            << " ev/s; hardware_concurrency = " << hw << ")\n";
  // The scaling gate only means something when 4 lanes can actually run in
  // parallel; single-core hosts still run the sweep for the multiset pin.
  bool overlay_scaling_ok = true;
  if (hw >= 4 && overlay_speedup_4v1 < 1.5) {
    overlay_scaling_ok = false;
    std::cout << "OVERLAY SCALING REGRESSION: 4-worker speedup "
              << util::format_number(overlay_speedup_4v1)
              << "x < 1.5x on a multi-core host\n";
  }

  {
    std::ofstream json{"BENCH_overlay.json"};
    json << "{\n  \"experiment\": \"A19\",\n  \"events\": "
         << events_per_thread << ",\n  \"arms\": [\n";
    for (std::size_t i = 0; i < overlay_runs.size(); ++i) {
      const OverlayRun& run = overlay_runs[i];
      json << "    {\"workers\": " << run.workers
           << ", \"events_per_sec\": " << run.events_per_sec
           << ", \"delivered\": " << run.delivered
           << ", \"allocs_per_event\": " << run.allocs_per_event << "}"
           << (i + 1 < overlay_runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"sim_control\": {\"events_per_sec\": "
         << sim_control.events_per_sec
         << ", \"delivered\": " << sim_control.delivered
         << "},\n  \"speedup_4_workers_vs_1\": " << overlay_speedup_4v1
         << ",\n  \"multiset_ok\": " << (overlay_ok ? "true" : "false")
         << ",\n  \"scaling_ok\": " << (overlay_scaling_ok ? "true" : "false")
         << "\n}\n";
    std::cout << "Wrote BENCH_overlay.json\n";
  }
  return overlay_ok && overlay_scaling_ok ? 0 : 1;
}
