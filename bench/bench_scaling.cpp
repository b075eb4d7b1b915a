// Experiments A6 + A18 — the paper's scaling claims (§5.3 discussion):
//
//   "The system scales better also with the number of subscriptions since
//    by adding a few intermediate nodes, the number of subscribers can be
//    increased significantly without increasing the required computational
//    power at any node"  and  "the event system hence scales in terms of
//    message rate".
//
// Two sweeps on the paper topology:
//   (a) subscribers 50→1200 at a fixed event count — max per-node RLC must
//       stay flat or fall (more subscribers amortize the same weakened
//       filters);
//   (b) events 1k→32k at fixed subscribers — per-node LC grows linearly
//       with rate, but RLC (work relative to a centralized server doing
//       the same job) stays constant.
//
// A18 (section d) pushes the *per-broker table* to the paper's "millions
// of subscriptions" regime: 1M+ Zipf-covered biblio subscriptions into one
// matching index, unmerged vs LUB-aggregated (DESIGN.md §13), measuring
// index entries and bytes per subscription, match latency and lease-churn
// cost — with a per-probe superset-exactness check (the aggregated match
// set must contain the unmerged one; any violation fails the run). Writes
// BENCH_scaling.json for tools/bench_gate.py.
//
//   CAKE_SCALING_SUBS      subscription count for A18 (default 1'000'000;
//                          the CI smoke lane runs 200'000)
//   CAKE_SCALING_SECTIONS  "all" (default) or "a18" to skip the A6 sweeps
#include <algorithm>
#include <chrono>
#include <fstream>

#include "cake/index/aggregate.hpp"
#include "cake/util/env.hpp"
#include "harness.hpp"

namespace {

using namespace cake;

std::size_t filter_bytes(const filter::ConjunctiveFilter& f) {
  // Names are interned symbols, shared process-wide: no per-filter bytes.
  std::size_t bytes = sizeof(filter::ConjunctiveFilter) +
                      f.constraints().capacity() *
                          sizeof(filter::AttributeConstraint);
  for (const auto& c : f.constraints()) {
    if (c.operand.kind() == value::Kind::String)
      bytes += c.operand.as_string().capacity();
  }
  return bytes;
}

struct ScalingArm {
  std::string name;
  bool aggregated = false;
  std::size_t entries = 0;          ///< live entries in the matching engine
  double entries_per_sub = 1.0;
  double index_bytes_per_sub = 0.0; ///< matching-structure filter footprint
  double build_subs_per_sec = 0.0;
  double match_events_per_sec = 0.0;
  double churn_ops_per_sec = 0.0;
  std::uint64_t deliveries = 0;     ///< Σ matched ids over the probe set
  std::uint64_t superset_violations = 0;
  index::AggregateStats agg;        ///< aggregated arms only
};

// The pair of arms: the same Zipf-covered population into an unmerged
// counting index and an AggregatedIndex (whose representatives sit in a
// counting index too), probed with the same events. The superset check
// runs inside the probe loop.
std::pair<ScalingArm, ScalingArm> run_scaling_pair(const std::string& tag,
                                                   std::size_t subs,
                                                   std::size_t probes,
                                                   std::size_t churn_ops) {
  using Clock = std::chrono::steady_clock;
  const auto& registry = reflect::TypeRegistry::global();

  ScalingArm plain_arm;
  plain_arm.name = tag;
  ScalingArm agg_arm;
  agg_arm.name = tag + "-agg";
  agg_arm.aggregated = true;

  index::CountingIndex plain{registry};
  index::AggregateConfig agg_config;
  agg_config.enabled = true;
  // Table-scale knobs: at 10^6 entries the Zipf head piles hundreds of
  // duplicates onto each popular shape, so groups must hold more than the
  // broker default (un-merge refold stays bounded at max_group joins) and
  // the probe must look past the first few MRU groups to find them.
  agg_config.max_group = 256;
  agg_config.probe_limit = 16;
  index::AggregatedIndex agg{agg_config, registry};

  // Zipf-covered population: the four wildcard shapes of §4.4 over a
  // denser-than-default combo space (the paper's regime — hundreds of
  // thousands of subscribers whose interests *cluster*), so the Zipf head
  // piles real duplication onto the popular shapes at any scale.
  workload::BiblioConfig biblio;
  biblio.conferences = 10;
  biblio.authors = 40;
  biblio.titles_per_combo = 2;
  workload::BiblioGenerator gen{biblio, 1812};
  {
    std::vector<filter::ConjunctiveFilter> batch;
    batch.reserve(subs);
    for (std::size_t i = 0; i < subs; ++i)
      batch.push_back(gen.next_subscription(i % 4));

    auto t0 = Clock::now();
    for (auto& f : batch) plain.add(f);
    const double plain_s = std::chrono::duration<double>(Clock::now() - t0).count();
    plain_arm.build_subs_per_sec = static_cast<double>(subs) / plain_s;

    std::size_t plain_bytes = 0;
    for (const auto& f : batch) plain_bytes += filter_bytes(f);
    plain_arm.index_bytes_per_sub =
        static_cast<double>(plain_bytes) / static_cast<double>(subs);

    t0 = Clock::now();
    for (auto& f : batch) agg.add(std::move(f));
    const double agg_s = std::chrono::duration<double>(Clock::now() - t0).count();
    agg_arm.build_subs_per_sec = static_cast<double>(subs) / agg_s;
  }

  plain_arm.entries = plain.size();
  plain_arm.entries_per_sub = 1.0;
  agg_arm.agg = agg.stats();
  agg_arm.entries = agg_arm.agg.groups;
  agg_arm.entries_per_sub = agg_arm.agg.entries_per_subscription();
  std::size_t rep_bytes = 0;
  for (const auto& rep : agg.group_reps()) rep_bytes += filter_bytes(rep);
  agg_arm.index_bytes_per_sub =
      static_cast<double>(rep_bytes) / static_cast<double>(subs);

  // Probe phase: identical events through both indexes; the aggregated
  // match set must contain the unmerged one on every single probe.
  {
    std::vector<event::EventImage> events;
    events.reserve(probes);
    for (std::size_t i = 0; i < probes; ++i) events.push_back(gen.next_event());

    std::vector<index::FilterId> out;
    auto t0 = Clock::now();
    for (const auto& image : events) {
      plain.match(image, out);
      plain_arm.deliveries += out.size();
    }
    plain_arm.match_events_per_sec =
        static_cast<double>(probes) /
        std::chrono::duration<double>(Clock::now() - t0).count();

    t0 = Clock::now();
    for (const auto& image : events) {
      agg.match(image, out);
      agg_arm.deliveries += out.size();
    }
    agg_arm.match_events_per_sec =
        static_cast<double>(probes) /
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::vector<index::FilterId> exact, merged;
    for (const auto& image : events) {
      plain.match(image, exact);
      agg.match(image, merged);
      std::sort(exact.begin(), exact.end());
      std::sort(merged.begin(), merged.end());
      if (!std::includes(merged.begin(), merged.end(), exact.begin(),
                         exact.end()))
        ++agg_arm.superset_violations;
    }
  }

  // Churn phase (aggregated arm only pays the un-merge/re-fold cost; the
  // unmerged arm gives the baseline): expire-and-replace cycles plus the
  // broker's periodic incremental re-clustering.
  {
    util::Rng churn_rng{77};
    std::vector<index::FilterId> live(subs);
    for (std::size_t i = 0; i < subs; ++i) live[i] = static_cast<index::FilterId>(i);
    const auto churn = [&](index::MatchIndex& idx, bool rebalance) {
      const auto t0 = Clock::now();
      for (std::size_t op = 0; op < churn_ops; ++op) {
        const std::size_t slot = churn_rng.below(live.size());
        idx.remove(live[slot]);
        live[slot] = idx.add(gen.next_subscription(op % 4));
        if (rebalance && op % 1024 == 0) agg.rebalance(32);
      }
      return static_cast<double>(churn_ops) /
             std::chrono::duration<double>(Clock::now() - t0).count();
    };
    plain_arm.churn_ops_per_sec = churn(plain, false);
    // Fresh id table for the aggregated index (same outer-id sequence).
    for (std::size_t i = 0; i < subs; ++i) live[i] = static_cast<index::FilterId>(i);
    churn_rng = util::Rng{77};
    agg_arm.churn_ops_per_sec = churn(agg, true);
  }

  return {std::move(plain_arm), std::move(agg_arm)};
}

}  // namespace

int main() {
  const std::size_t a18_subs =
      static_cast<std::size_t>(util::env_u64("CAKE_SCALING_SUBS").value_or(1'000'000));
  const bool a18_only =
      util::env_string("CAKE_SCALING_SECTIONS").value_or("all") == "a18";

  using namespace cake;

  if (!a18_only) {
  std::cout << "=== A6: Scaling sweeps (paper §5.3 discussion) ===\n\n";

  std::cout << "(a) subscriber sweep, 5000 events:\n";
  util::TextTable subs_table{{"Subscribers", "Max node RLC", "Max broker LC",
                              "Stage-1 filters (avg)", "Messages/event"}};
  for (const std::size_t subscribers : {50u, 150u, 400u, 1200u}) {
    bench::SimConfig config;
    config.stage_counts = {1, 10, 100};
    config.subscribers = subscribers;
    config.events = 5'000;
    const bench::SimResult result = bench::run_biblio_sim(config);

    double max_rlc = 0.0, max_lc = 0.0;
    double stage1_filters = 0.0;
    std::size_t stage1_nodes = 0;
    for (const auto& load : result.broker_loads) {
      max_rlc = std::max(max_rlc, load.rlc(config.events, subscribers));
      max_lc = std::max(max_lc, load.lc());
      if (load.stage == 1) {
        stage1_filters += static_cast<double>(load.filters);
        ++stage1_nodes;
      }
    }
    subs_table.add_row(
        {std::to_string(subscribers), util::format_number(max_rlc),
         util::format_number(max_lc),
         util::format_number(stage1_filters / double(stage1_nodes)),
         util::format_number(static_cast<double>(result.network_messages) /
                             static_cast<double>(config.events))});
  }
  subs_table.print(std::cout);

  std::cout << "\n(b) event-rate sweep, 150 subscribers:\n";
  util::TextTable events_table{{"Events", "Max broker LC", "Max node RLC",
                                "Global RLC", "Deliveries"}};
  for (const std::size_t events : {1'000u, 4'000u, 16'000u, 32'000u}) {
    bench::SimConfig config;
    config.stage_counts = {1, 10, 100};
    config.subscribers = 150;
    config.events = events;
    const bench::SimResult result = bench::run_biblio_sim(config);

    double max_rlc = 0.0, max_lc = 0.0;
    for (const auto& load : result.broker_loads) {
      max_rlc = std::max(max_rlc, load.rlc(events, config.subscribers));
      max_lc = std::max(max_lc, load.lc());
    }
    events_table.add_row({std::to_string(events), util::format_number(max_lc),
                          util::format_number(max_rlc),
                          util::format_number(metrics::global_rlc(result.summaries())),
                          std::to_string(result.deliveries)});
  }
  events_table.print(std::cout);

  std::cout << "\n(c) subscriptions-per-subscriber sweep, 150 subscribers, "
               "5000 events (paper: millions of subscriptions over hundreds "
               "of thousands of subscribers):\n";
  util::TextTable density_table{{"Subs/subscriber", "Total subscriptions",
                                 "Stage-1 filters", "Max broker LC",
                                 "Messages"}};
  for (const std::size_t density : {1u, 2u, 4u, 8u}) {
    bench::SimConfig config;
    config.stage_counts = {1, 10, 100};
    config.subscribers = 150;
    config.events = 5'000;
    config.subscriptions_per_subscriber = density;
    const bench::SimResult result = bench::run_biblio_sim(config);
    std::size_t stage1_filters = 0;
    double max_lc = 0.0;
    for (const auto& load : result.broker_loads) {
      if (load.stage == 1) stage1_filters += load.filters;
      max_lc = std::max(max_lc, load.lc());
    }
    density_table.add_row({std::to_string(density),
                           std::to_string(150 * density),
                           std::to_string(stage1_filters),
                           util::format_number(max_lc),
                           std::to_string(result.network_messages)});
  }
  density_table.print(std::cout);

  std::cout << "\nShape check: (a) max RLC flat-or-falling as subscribers "
               "grow; (b) LC linear in the event rate while RLC stays "
               "constant; (c) broker filter tables grow sublinearly in the "
               "subscription count (clustering + weakened-form dedup).\n";
  }  // !a18_only

  // ---- (d) A18: the million-subscription aggregated filter table ----------
  workload::ensure_types_registered();
  const std::string suffix = std::to_string(a18_subs / 1000) + "k";
  const std::size_t probes = 400;
  const std::size_t churn_ops = std::min<std::size_t>(20'000, a18_subs / 4);

  std::cout << "\n=== A18: subscription aggregation at " << a18_subs
            << " subscriptions ===\n"
            << "Zipf-covered biblio population (§4.4 wildcard shapes), "
            << probes << " probe events, " << churn_ops
            << " expire-and-replace churn ops\n\n";

  auto [counting_arm, counting_agg_arm] = run_scaling_pair(
      std::string{"counting-"} + suffix, a18_subs, probes, churn_ops);
  const std::vector<ScalingArm> arms{counting_arm, counting_agg_arm};

  util::TextTable table{{"Arm", "Entries", "Entries/sub", "Idx bytes/sub",
                         "Build subs/s", "Match ev/s", "Churn ops/s",
                         "Deliveries"}};
  for (const ScalingArm& arm : arms) {
    table.add_row({arm.name, std::to_string(arm.entries),
                   util::format_number(arm.entries_per_sub),
                   util::format_number(arm.index_bytes_per_sub),
                   util::format_number(arm.build_subs_per_sec),
                   util::format_number(arm.match_events_per_sec),
                   util::format_number(arm.churn_ops_per_sec),
                   std::to_string(arm.deliveries)});
  }
  table.print(std::cout);

  bool ok = true;
  for (std::size_t i = 0; i + 1 < arms.size(); i += 2) {
    const ScalingArm& plain_arm = arms[i];
    const ScalingArm& agg_arm = arms[i + 1];
    const double reduction = 1.0 / agg_arm.entries_per_sub;
    std::cout << "\n" << plain_arm.name << " -> " << agg_arm.name
              << ": entries/subscription reduction "
              << util::format_number(reduction) << "x, merge ratio "
              << util::format_number(agg_arm.agg.merge_ratio())
              << " (widened " << agg_arm.agg.widening_merges << ", un-merged "
              << agg_arm.agg.unmerges << ", reclustered "
              << agg_arm.agg.recluster_merges << ", rejected "
              << agg_arm.agg.rejected << ")\n";
    // Acceptance gates (deterministic: the population is seeded). The
    // merged table must be >=5x smaller per subscription on this covered
    // population, and the match sets must be superset-exact on every probe.
    if (reduction < 5.0) {
      std::cerr << "GATE: " << agg_arm.name << " entries/subscription only "
                << util::format_number(reduction) << "x smaller (< 5x)\n";
      ok = false;
    }
    if (agg_arm.superset_violations != 0) {
      std::cerr << "GATE: " << agg_arm.name << " lost matches on "
                << agg_arm.superset_violations << " probes (false negative)\n";
      ok = false;
    }
    if (agg_arm.deliveries < plain_arm.deliveries) {
      std::cerr << "GATE: " << agg_arm.name
                << " delivered fewer ids than unmerged\n";
      ok = false;
    }
  }

  {
    std::ofstream json{"BENCH_scaling.json"};
    json << "{\n  \"experiment\": \"A18\",\n  \"subscriptions\": " << a18_subs
         << ",\n  \"arms\": [\n";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const ScalingArm& arm = arms[i];
      json << "    {\"name\": \"" << arm.name
           << "\", \"aggregated\": " << (arm.aggregated ? "true" : "false")
           << ", \"entries\": " << arm.entries
           << ", \"entries_per_sub\": " << arm.entries_per_sub
           << ", \"index_bytes_per_sub\": " << arm.index_bytes_per_sub
           << ", \"build_subs_per_sec\": " << arm.build_subs_per_sec
           << ", \"match_events_per_sec\": " << arm.match_events_per_sec
           << ", \"churn_ops_per_sec\": " << arm.churn_ops_per_sec
           << ", \"deliveries\": " << arm.deliveries
           << ", \"superset_violations\": " << arm.superset_violations << "}"
           << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "\nWrote BENCH_scaling.json\n";
  }

  if (!ok) return 1;
  return 0;
}
