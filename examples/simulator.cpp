// Configurable simulation front-end — the closest thing to the paper's
// own "simulation tool" (§5.2), exposed as a CLI so every knob of the
// §5 evaluation can be explored without recompiling:
//
//   build/examples/simulator --stages 1,10,100 --subscribers 150
//     --events 10000 --placement covering --engine naive --wildcard-every 0
//     --collapse false --author-skew 1.1 --title-skew 4.0 --seed 2002
//
// (one command line, wrapped here for width)
//
// Choice flags accept only these values; anything else exits 2 with the
// usage line:
//   --placement  covering (default) | random
//   --engine     naive (default) | counting
//   --topology   hierarchy (default) | peer
//
// Prints the §5.3 RLC table, the Fig. 7 per-stage matching rates and the
// traffic totals for the configured run.
#include <iostream>

#include "cake/metrics/metrics.hpp"
#include "cake/metrics/sampler.hpp"
#include "cake/peer/peer.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/util/cli.hpp"
#include "cake/workload/generators.hpp"

namespace {

/// The non-hierarchical variant of the simulation (--topology peer).
int run_peer(std::size_t brokers, std::size_t subscribers, std::size_t events,
             bool advertisements, cake::index::Engine engine,
             std::uint64_t seed, const cake::workload::BiblioConfig& biblio) {
  using namespace cake;
  peer::PeerConfig config;
  config.engine = engine;
  config.use_advertisements = advertisements;
  peer::PeerMesh mesh{brokers, config, seed};
  auto& pub = mesh.add_publisher(0);
  if (advertisements) {
    pub.advertise(filter::FilterBuilder{"Publication"}.build());
    mesh.run();
  }
  workload::BiblioGenerator gen{biblio, seed};
  for (std::size_t i = 0; i < subscribers; ++i) {
    mesh.add_subscriber().subscribe(gen.next_subscription(), {});
    mesh.run();
  }
  for (std::size_t e = 0; e < events; ++e) pub.publish(gen.next_event());
  mesh.run();

  std::size_t total_filters = 0, max_filters = 0;
  for (const auto& broker : mesh.brokers()) {
    total_filters += broker->stats().filters;
    max_filters = std::max(max_filters, broker->stats().filters);
  }
  std::uint64_t delivered = 0;
  util::RunningStats latency;
  for (const auto& sub : mesh.subscribers()) {
    delivered += sub->events_delivered();
    latency.merge(sub->delivery_latency());
  }
  std::cout << "peer mesh: " << brokers << " brokers, " << subscribers
            << " subscribers, " << events << " events\n"
            << "routing state: " << total_filters << " filters total, max "
            << max_filters << " per broker\n"
            << "delivered: " << delivered << "   avg latency: "
            << util::format_number(latency.mean() / 1000.0) << " ms\n"
            << "messages: " << mesh.network().total_messages() << "   bytes: "
            << mesh.network().total_bytes() << "\n";
  return 0;
}

/// The hierarchical simulation, or run_peer for --topology peer. Throws
/// util::CliError on a malformed flag before any simulation work starts.
int run(const cake::util::CliArgs& args) {
  using namespace cake;

  const auto stage_counts = args.get_list("stages", {1, 10, 100});
  const auto subscribers = static_cast<std::size_t>(
      args.get("subscribers", std::int64_t{150}));
  const auto events =
      static_cast<std::size_t>(args.get("events", std::int64_t{10'000}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{2002}));
  const std::string placement =
      args.get_choice("placement", "covering", {"covering", "random"});
  const std::string engine =
      args.get_choice("engine", "naive", {"naive", "counting"});
  const std::string topology =
      args.get_choice("topology", "hierarchy", {"hierarchy", "peer"});
  const auto wildcard_every = static_cast<std::size_t>(
      args.get("wildcard-every", std::int64_t{0}));
  const auto wildcard_count = static_cast<std::size_t>(
      args.get("wildcard-count", std::int64_t{1}));
  const auto sample_ms =
      static_cast<sim::Time>(args.get("sample-ms", std::int64_t{0}));

  workload::ensure_types_registered();

  routing::OverlayConfig config;
  config.stage_counts = stage_counts;
  config.seed = seed;
  config.broker.placement = placement == "random"
                                ? routing::Placement::Random
                                : routing::Placement::CoveringSearch;
  config.broker.engine =
      engine == "counting" ? index::Engine::Counting : index::Engine::Naive;
  config.broker.covering_collapse = args.get("collapse", false);

  workload::BiblioConfig biblio;
  biblio.author_skew = args.get("author-skew", biblio.author_skew);
  biblio.title_skew = args.get("title-skew", biblio.title_skew);
  biblio.authors = static_cast<std::size_t>(
      args.get("authors", static_cast<std::int64_t>(biblio.authors)));
  biblio.conferences = static_cast<std::size_t>(
      args.get("conferences", static_cast<std::int64_t>(biblio.conferences)));
  biblio.years = static_cast<std::size_t>(
      args.get("years", static_cast<std::int64_t>(biblio.years)));

  if (topology == "peer") {
    return run_peer(
        static_cast<std::size_t>(args.get("brokers", std::int64_t{20})),
        subscribers, events, args.get("advertisements", true),
        config.broker.engine, seed, biblio);
  }

  routing::Overlay overlay{config};
  auto& publisher = overlay.add_publisher();
  publisher.advertise(
      workload::BiblioGenerator::schema(stage_counts.size() + 1));
  overlay.run();

  std::unique_ptr<metrics::LoadSampler> sampler;
  if (sample_ms != 0) {
    sampler = std::make_unique<metrics::LoadSampler>(overlay, sample_ms * 1000);
    sampler->start();
  }

  workload::BiblioGenerator gen{biblio, seed};
  for (std::size_t i = 0; i < subscribers; ++i) {
    const bool wildcard = wildcard_every != 0 && i % wildcard_every == 0;
    overlay.add_subscriber().subscribe(
        gen.next_subscription(wildcard ? wildcard_count : 0), {});
    overlay.run();
  }
  for (std::size_t e = 0; e < events; ++e) publisher.publish(gen.next_event());
  overlay.run();

  std::cout << "topology:";
  for (const std::size_t n : stage_counts) std::cout << ' ' << n;
  std::cout << " brokers (root first), " << subscribers << " subscribers, "
            << events << " events, seed " << seed << "\n\n";

  auto loads = metrics::broker_loads(overlay);
  const auto subs = metrics::subscriber_loads(overlay);
  loads.insert(loads.end(), subs.begin(), subs.end());
  const auto summaries = metrics::summarize_by_stage(loads, events, subscribers);
  metrics::rlc_table(summaries).print(std::cout);
  std::cout << '\n';
  metrics::stage_table(summaries).print(std::cout);
  if (sampler != nullptr) {
    sampler->flush();
    std::cout << "\nper-window root load (LC per " << sample_ms << " ms):\n";
    util::TextTable windows{{"Window", "Root events", "Root MR"}};
    std::size_t index = 0;
    for (const auto& window : sampler->windows()) {
      for (const auto& load : window.loads) {
        if (load.id != overlay.root().id()) continue;
        ++index;
        if (load.events_received == 0) continue;  // idle join-phase windows
        windows.add_row({std::to_string(index - 1),
                         std::to_string(load.events_received),
                         util::format_number(load.mr())});
      }
    }
    windows.print(std::cout);
  }

  std::cout << "\nglobal RLC: "
            << util::format_number(metrics::global_rlc(summaries))
            << "   messages: " << overlay.network().total_messages()
            << "   bytes: " << overlay.network().total_bytes() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cake::util::CliArgs args{argc, argv};
  try {
    args.allow({"stages", "subscribers", "events", "placement", "engine",
                "wildcard-every", "wildcard-count", "collapse", "author-skew",
                "title-skew", "authors", "conferences", "years", "seed",
                "topology", "brokers", "advertisements", "sample-ms", "help"});
    if (args.has("help")) {
      std::cout << args.usage(argv[0]) << "\n";
      return 0;
    }
    return run(args);
  } catch (const cake::util::CliError& error) {
    std::cerr << error.what() << "\n" << args.usage(argv[0]) << "\n";
    return 2;
  }
}
