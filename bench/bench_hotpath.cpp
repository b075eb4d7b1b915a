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
// Writes BENCH_hotpath.json next to the working directory for the CI
// artifact. Exit status: 0 when the alloc gate holds, 1 otherwise.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "cake/routing/overlay.hpp"
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

  util::TextTable table{
      {"Arm", "Events/s", "Allocs/event", "Bytes/event", "Deliveries"}};
  table.add_row({passthrough.name,
                 util::format_number(passthrough.best_events_per_sec),
                 util::format_number(passthrough.allocs_per_event),
                 util::format_number(passthrough.bytes_per_event),
                 std::to_string(passthrough.deliveries)});
  table.print(std::cout);

  {
    std::ofstream json{"BENCH_hotpath.json"};
    json << "{\n  \"experiment\": \"A14\",\n  \"events\": " << events
         << ",\n  \"arms\": [\n"
         << "    {\"name\": \"" << passthrough.name
         << "\", \"events_per_sec\": " << passthrough.best_events_per_sec
         << ", \"allocs_per_event\": " << passthrough.allocs_per_event
         << ", \"bytes_per_event\": " << passthrough.bytes_per_event
         << ", \"deliveries\": " << passthrough.deliveries << "}\n"
         << "  ]\n}\n";
  }

  // Deterministic gate. Broker hops and subscriber deliveries allocate
  // nothing once the frame memos are warm; what remains per event is the
  // publisher's image and frame, outside §9's claim: 3.9775 allocs/event at
  // 10,000 events, under an absolute ceiling of 4.5.
  constexpr double kPassthroughAllocCeiling = 4.5;
  const bool ok = passthrough.allocs_per_event <= kPassthroughAllocCeiling;
  if (!ok) {
    std::cerr << "GATE: passthrough allocs/event ("
              << passthrough.allocs_per_event << ") above the ceiling of "
              << kPassthroughAllocCeiling << "\n";
  }
  std::cout << (ok ? "\nA14 alloc gate: PASS\n" : "\nA14 alloc gate: FAIL\n");
  return ok ? 0 : 1;
}
