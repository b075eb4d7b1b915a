// Experiment A4 — microbenchmarks of the filtering-cost tradeoffs the
// paper discusses in §2.2/§3.4:
//
//   * matching throughput vs table size for the naive Fig. 6 loop and the
//     counting index ("efficient indexing and matching techniques");
//   * the reflective image-extraction and serialization costs that typed
//     events add (the price of event safety, paid once per event at the
//     edge rather than per hop);
//   * filter weakening and covering checks (the control-plane costs).
//
// Expected shape: counting-index matching grows sublinearly with the
// number of filters while the naive loop grows linearly; extraction and
// (de)serialization sit in the sub-microsecond range that makes one-time
// transformation at the producer edge cheap.
#include <benchmark/benchmark.h>

#include "cake/baseline/baseline.hpp"
#include "cake/index/index.hpp"
#include "cake/runtime/local_bus.hpp"
#include "cake/util/regex.hpp"
#include "cake/weaken/weaken.hpp"
#include "cake/workload/generators.hpp"

namespace {

using namespace cake;

workload::BiblioGenerator make_generator() {
  workload::ensure_types_registered();
  return workload::BiblioGenerator{{}, 42};
}

void fill_index(index::MatchIndex& idx, std::size_t filters) {
  workload::BiblioGenerator gen = make_generator();
  for (std::size_t i = 0; i < filters; ++i) idx.add(gen.next_subscription());
}

void BM_MatchNaive(benchmark::State& state) {
  index::NaiveTable idx{reflect::TypeRegistry::global()};
  fill_index(idx, static_cast<std::size_t>(state.range(0)));
  workload::BiblioGenerator gen = make_generator();
  std::vector<event::EventImage> events;
  for (int i = 0; i < 64; ++i) events.push_back(gen.next_event());
  std::vector<index::FilterId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    idx.match(events[i++ % events.size()], out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MatchNaive)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MatchCounting(benchmark::State& state) {
  index::CountingIndex idx{reflect::TypeRegistry::global()};
  fill_index(idx, static_cast<std::size_t>(state.range(0)));
  workload::BiblioGenerator gen = make_generator();
  std::vector<event::EventImage> events;
  for (int i = 0; i < 64; ++i) events.push_back(gen.next_event());
  std::vector<index::FilterId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    idx.match(events[i++ % events.size()], out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MatchCounting)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ImageExtraction(benchmark::State& state) {
  workload::ensure_types_registered();
  const workload::Stock stock{"FOO", 10.0, 32300};
  for (auto _ : state) {
    benchmark::DoNotOptimize(event::image_of(stock));
  }
}
BENCHMARK(BM_ImageExtraction);

void BM_EventToWire(benchmark::State& state) {
  workload::ensure_types_registered();
  const workload::Stock stock{"FOO", 10.0, 32300};
  for (auto _ : state) {
    benchmark::DoNotOptimize(event::to_wire(stock));
  }
}
BENCHMARK(BM_EventToWire);

void BM_WireToTypedEvent(benchmark::State& state) {
  workload::ensure_types_registered();
  const auto bytes = event::to_wire(workload::Stock{"FOO", 10.0, 32300});
  for (auto _ : state) {
    benchmark::DoNotOptimize(event::from_wire(bytes, event::EventCodec::global()));
  }
}
BENCHMARK(BM_WireToTypedEvent);

void BM_WireToImageOnly(benchmark::State& state) {
  workload::ensure_types_registered();
  const auto bytes = event::to_wire(workload::Stock{"FOO", 10.0, 32300});
  for (auto _ : state) {
    benchmark::DoNotOptimize(event::image_from_wire(bytes));
  }
}
BENCHMARK(BM_WireToImageOnly);

void BM_FilterWeakening(benchmark::State& state) {
  workload::BiblioGenerator gen = make_generator();
  const auto schema = workload::BiblioGenerator::schema();
  const auto filter = gen.next_subscription();
  std::size_t stage = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(weaken::weaken_filter(filter, schema, stage++ % 4));
  }
}
BENCHMARK(BM_FilterWeakening);

void BM_FilterCovering(benchmark::State& state) {
  workload::BiblioGenerator gen = make_generator();
  std::vector<filter::ConjunctiveFilter> filters;
  for (int i = 0; i < 64; ++i) filters.push_back(gen.next_subscription(i % 3));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(covers(filters[i % 64], filters[(i + 1) % 64],
                                    reflect::TypeRegistry::global()));
    ++i;
  }
}
BENCHMARK(BM_FilterCovering);

void BM_RegexCompile(benchmark::State& state) {
  int salt = 0;
  for (auto _ : state) {
    // Vary the pattern so the compile path runs (cached() would memoize).
    benchmark::DoNotOptimize(
        util::Regex{"title-[0-9]+-(a|b)*" + std::to_string(salt++ % 8)});
  }
}
BENCHMARK(BM_RegexCompile);

void BM_RegexMatch(benchmark::State& state) {
  const util::Regex regex{"title-[0-9]+-[0-9]+-[0-9]+-[01]"};
  const std::string subjects[] = {"title-1-2-33-0", "title-1-2-33-7",
                                  "publication-xyz", "title-9-9-9-1"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(regex.matches(subjects[i++ % 4]));
  }
}
BENCHMARK(BM_RegexMatch);

void BM_CentralizedPublish(benchmark::State& state) {
  baseline::CentralizedServer server;
  workload::BiblioGenerator gen = make_generator();
  for (int i = 0; i < 1000; ++i)
    server.subscribe(gen.next_subscription(),
                     static_cast<baseline::SubscriberId>(i));
  std::vector<event::EventImage> events;
  for (int i = 0; i < 64; ++i) events.push_back(gen.next_event());
  std::size_t i = 0;
  for (auto _ : state) {
    server.publish(events[i++ % events.size()]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CentralizedPublish);

void BM_LocalBusPublish(benchmark::State& state) {
  runtime::LocalBus bus;
  workload::BiblioGenerator gen = make_generator();
  for (int i = 0; i < state.range(0); ++i)
    bus.subscribe(gen.next_subscription(), [](const event::Event&) {});
  workload::StockGenerator stocks{{}, 55};
  std::vector<workload::Publication> events;
  for (int i = 0; i < 64; ++i) {
    const auto image = gen.next_event();
    events.emplace_back(image.find("year")->as_int(),
                        image.find("conference")->as_string(),
                        image.find("author")->as_string(),
                        image.find("title")->as_string());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.publish(events[i++ % events.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalBusPublish)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
