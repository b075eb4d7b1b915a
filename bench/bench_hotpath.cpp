// Experiment A14 — zero-allocation hot path.
//
// The `passthrough` arm runs a seeded {1, 4, 16} biblio overlay, timed
// around the publish + drain phase only: each frame decoded once, by its
// first receiver, into a memo every later hop and subscriber reads, and the
// original refcounted frame fanned to every matching child over pooled wire
// buffers — the DESIGN.md §9 event path.
//
// Rounds keep best-of-R throughput. A counting operator-new interposer
// (local to this binary) measures allocations per published event over the
// publish + drain phase; that count is deterministic for a fixed workload
// and forms the CI regression gate — wall-clock throughput is reported but
// not gated, since shared runners jitter.
//
// A second, *threaded* arm (DESIGN.md §11) runs a pre-created refcounted
// event stream through the batched pipeline on a ThreadedTransport: the
// cross-thread handoff is a refcount bump plus 1/batch of a queue push,
// so its steady-state allocs/event must stay near zero too — that is the
// claim that the §9 arithmetic survives the thread hop, and it is gated
// here alongside a differential delivery check against the direct bus.
//
// Writes BENCH_hotpath.json next to the working directory for the CI
// artifact. Exit status: 0 when the alloc gates hold, 1 otherwise.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "cake/filter/filter.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/runtime/local_bus.hpp"
#include "cake/runtime/pipeline.hpp"
#include "cake/runtime/threaded.hpp"
#include "cake/util/table.hpp"
#include "cake/workload/generators.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cake;

constexpr std::size_t kSubscribers = 40;
constexpr int kRounds = 5;

struct Arm {
  const char* name;
  double best_events_per_sec = 0.0;
  double allocs_per_event = 0.0;
  double bytes_per_event = 0.0;
  std::uint64_t deliveries = 0;
};

void run_arm(Arm& arm, std::size_t events, std::uint64_t seed) {
  routing::OverlayConfig config;
  config.stage_counts = {1, 4, 16};
  config.seed = seed;
  config.broker.auto_renew = false;  // static phase: measure the event path
  routing::Overlay overlay{config};

  auto& publisher = overlay.add_publisher();
  publisher.advertise(workload::BiblioGenerator::schema());
  overlay.run();

  workload::BiblioGenerator gen{{}, seed};
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    overlay.add_subscriber().subscribe(gen.next_subscription(i % 3), {});
    overlay.run();
  }

  // Pre-generate the stream so the generator's cost is outside the clock,
  // and warm every scratch/pool with a prefix slice before measuring.
  std::vector<event::EventImage> stream;
  stream.reserve(events + 256);
  for (std::size_t e = 0; e < events + 256; ++e)
    stream.push_back(gen.next_event());
  for (std::size_t e = events; e < stream.size(); ++e)
    publisher.publish(std::move(stream[e]));
  overlay.run();

  const std::uint64_t bytes_before = overlay.network().total_bytes();
  const std::uint64_t news_before = news();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < events; ++e)
    publisher.publish(std::move(stream[e]));
  overlay.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const std::uint64_t news_after = news();

  arm.best_events_per_sec =
      std::max(arm.best_events_per_sec, double(events) / elapsed.count());
  arm.allocs_per_event = double(news_after - news_before) / double(events);
  arm.bytes_per_event =
      double(overlay.network().total_bytes() - bytes_before) / double(events);
  arm.deliveries = 0;
  for (const auto& sub : overlay.subscribers())
    arm.deliveries += sub->stats().events_delivered;
}

struct ThreadedArm {
  double best_events_per_sec = 0.0;
  double allocs_per_event = 0.0;
  /// Same stream published directly on the bus, same interposer — the
  /// matching engine's own per-event cost (image extraction), which the
  /// transport hop must not add to.
  double direct_allocs_per_event = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;
  std::size_t workers = 0;
};

constexpr int kStockFilters = 200;

void populate_stock_bus(cake::runtime::LocalBus& bus,
                        std::atomic<std::uint64_t>& delivered) {
  using cake::filter::FilterBuilder;
  using cake::filter::Op;
  for (int i = 0; i < kStockFilters; ++i)
    bus.subscribe(
        FilterBuilder{"Stock"}
            .where("price", Op::Lt, cake::value::Value{double(i)})
            .build(),
        [&delivered](const cake::event::Event&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
}

// The threaded pipeline arm: events pre-created outside the clock (their
// construction is the publisher's cost, not the transport's), then staged
// through one Producer handle while transport workers match and deliver.
void run_threaded_arm(ThreadedArm& arm, std::size_t events) {
  using namespace cake;
  runtime::ThreadedTransport transport{};
  arm.workers = transport.workers();
  runtime::LocalBus bus;
  std::atomic<std::uint64_t> delivered{0};
  populate_stock_bus(bus, delivered);

  std::vector<runtime::EventPtr> stream;
  stream.reserve(events);
  for (std::size_t e = 0; e < events; ++e)
    stream.push_back(std::make_shared<const workload::Stock>(
        "SYM", double(e % kStockFilters), std::int64_t(e)));

  // Direct-publish oracle: the delivery gate's expected count AND the
  // alloc baseline the transport hop is measured against (warm a slice
  // first so the publishing thread's match scratch is outside the count).
  runtime::LocalBus oracle;
  std::atomic<std::uint64_t> expected{0};
  populate_stock_bus(oracle, expected);
  for (std::size_t e = 0; e < std::min<std::size_t>(events, 512); ++e)
    oracle.publish(*stream[e]);
  expected.store(0);
  const std::uint64_t direct_before = news();
  for (const auto& event : stream) oracle.publish(*event);
  arm.direct_allocs_per_event =
      double(news() - direct_before) / double(events);
  arm.expected = expected.load();

  runtime::EventPipeline pipeline{transport, bus, {}};
  {
    runtime::EventPipeline::Producer warm{pipeline};
    for (std::size_t e = 0; e < std::min<std::size_t>(events, 512); ++e)
      warm.publish(stream[e]);
  }
  pipeline.drain();
  const std::uint64_t warmed = delivered.exchange(0);
  (void)warmed;

  const std::uint64_t news_before = news();
  const auto start = std::chrono::steady_clock::now();
  {
    runtime::EventPipeline::Producer producer{pipeline};
    for (const auto& event : stream) producer.publish(event);
  }
  pipeline.drain();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const std::uint64_t news_after = news();

  arm.best_events_per_sec =
      std::max(arm.best_events_per_sec, double(events) / elapsed.count());
  arm.allocs_per_event = double(news_after - news_before) / double(events);
  arm.delivered = delivered.load();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t events =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;
  if (events == 0) {
    std::cerr << "usage: " << argv[0] << " [events > 0]\n";
    return 2;
  }
  workload::ensure_types_registered();

  Arm passthrough{"passthrough"};

  std::cout << "=== A14: Zero-allocation hot path ===\n"
            << "{1,4,16} overlay, " << kSubscribers << " subscribers, "
            << events << " events, best of " << kRounds
            << " rounds\n\n";

  for (int round = 0; round < kRounds; ++round)
    run_arm(passthrough, events, 2002 + round);

  ThreadedArm threaded;
  for (int round = 0; round < kRounds; ++round)
    run_threaded_arm(threaded, events);

  util::TextTable table{
      {"Arm", "Events/s", "Allocs/event", "Bytes/event", "Deliveries"}};
  table.add_row({passthrough.name,
                 util::format_number(passthrough.best_events_per_sec),
                 util::format_number(passthrough.allocs_per_event),
                 util::format_number(passthrough.bytes_per_event),
                 std::to_string(passthrough.deliveries)});
  table.print(std::cout);

  std::cout << "\nthreaded pipeline arm (" << threaded.workers
            << " workers): " << util::format_number(threaded.best_events_per_sec)
            << " ev/s, " << util::format_number(threaded.allocs_per_event)
            << " allocs/event (direct publish: "
            << util::format_number(threaded.direct_allocs_per_event)
            << "), " << threaded.delivered << " deliveries\n";

  {
    std::ofstream json{"BENCH_hotpath.json"};
    json << "{\n  \"experiment\": \"A14\",\n  \"events\": " << events
         << ",\n  \"arms\": [\n"
         << "    {\"name\": \"" << passthrough.name
         << "\", \"events_per_sec\": " << passthrough.best_events_per_sec
         << ", \"allocs_per_event\": " << passthrough.allocs_per_event
         << ", \"bytes_per_event\": " << passthrough.bytes_per_event
         << ", \"deliveries\": " << passthrough.deliveries << "}\n"
         << "  ],\n  \"threaded\": {\"workers\": " << threaded.workers
         << ", \"events_per_sec\": " << threaded.best_events_per_sec
         << ", \"allocs_per_event\": " << threaded.allocs_per_event
         << ", \"direct_allocs_per_event\": "
         << threaded.direct_allocs_per_event
         << ", \"deliveries\": " << threaded.delivered << "}\n}\n";
  }

  // Deterministic gates. Broker hops and subscriber deliveries allocate
  // nothing once the frame memos are warm; what remains per event is the
  // publisher's image and frame, outside §9's claim: 3.9775 allocs/event at
  // 10,000 events, under an absolute ceiling of 4.5.
  constexpr double kPassthroughAllocCeiling = 4.5;
  bool ok = true;
  if (!(passthrough.allocs_per_event <= kPassthroughAllocCeiling)) {
    std::cerr << "GATE: passthrough allocs/event ("
              << passthrough.allocs_per_event << ") above the ceiling of "
              << kPassthroughAllocCeiling << "\n";
    ok = false;
  }
  // Threaded arm: the hot path must survive the thread hop. The transport
  // may add at most 0.25 allocs/event over publishing the same stream
  // directly — the per-batch constant (one staging vector + one task
  // closure per 32-event batch) with 4x headroom; the events themselves
  // are pre-created and only ever refcount-bumped across the hop.
  const double hop_cost =
      threaded.allocs_per_event - threaded.direct_allocs_per_event;
  if (!(hop_cost <= 0.25)) {
    std::cerr << "GATE: threaded pipeline adds " << hop_cost
              << " allocs/event over direct publish ("
              << threaded.allocs_per_event << " vs "
              << threaded.direct_allocs_per_event << "), budget 0.25\n";
    ok = false;
  }
  if (threaded.delivered != threaded.expected) {
    std::cerr << "GATE: threaded pipeline delivered " << threaded.delivered
              << " != direct-publish oracle " << threaded.expected << "\n";
    ok = false;
  }
  std::cout << (ok ? "\nA14 alloc gate: PASS\n" : "\nA14 alloc gate: FAIL\n");
  return ok ? 0 : 1;
}
