// Embedded bus: the library without the simulator.
//
// A host application links cake::runtime and gets the paper's programming
// model — typed events, content filters, stateful closures — as an
// in-process, thread-safe event bus: handlers receive the *original*
// published object, so there is no serialization anywhere on the hot
// path.
//
// Run: build/examples/embedded_bus
#include <iostream>
#include <thread>

#include "cake/runtime/local_bus.hpp"
#include "cake/workload/generators.hpp"

int main() {
  using namespace cake;
  using filter::FilterBuilder;
  using filter::Op;
  using value::Value;

  workload::ensure_types_registered();
  runtime::LocalBus bus;  // a counting index per event-class shard

  // A risk desk watches big cheap blocks with a stateful budget closure.
  std::size_t risk_alerts = 0;
  bus.subscribe<workload::Stock>(
      FilterBuilder{"Stock"}
          .where("price", Op::Lt, Value{120.0})
          .where("volume", Op::Gt, Value{50'000})
          .build(),
      [&](const workload::Stock& s) {
        ++risk_alerts;
        if (risk_alerts <= 3)
          std::cout << "  risk: " << s.symbol() << " x" << s.volume() << " @ "
                    << s.price() << "\n";
      });

  // An index tracker follows two hot symbols via a composite of regexes.
  std::size_t ticks = 0;
  bus.subscribe<workload::Stock>(
      FilterBuilder{"Stock"}.where("symbol", Op::Regex, Value{"SYM(A0|B1)"}).build(),
      [&](const workload::Stock&) { ++ticks; });

  // Four producer threads hammer the bus concurrently.
  constexpr int kThreads = 4;
  constexpr int kQuotes = 25'000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&bus, t] {
      workload::StockGenerator gen{{}, 100 + static_cast<std::uint64_t>(t)};
      for (int i = 0; i < kQuotes; ++i) bus.publish(gen.next());
    });
  }
  for (auto& thread : producers) thread.join();

  const auto stats = bus.stats();
  std::cout << "\npublished " << stats.events_published << " quotes from "
            << kThreads << " threads\n"
            << "risk alerts: " << risk_alerts << "   tracker ticks: " << ticks
            << "   total deliveries: " << stats.deliveries << "\n";
  return 0;
}
