// The three workloads. Each measured pass builds a fresh overlay from the
// same seed (its set-up time is one setup_s sample), drives a fixed script
// of events and subscription operations through the public Overlay API,
// and checks every handler call against the centralized exact matcher.
// Passes repeat until the run's time budget is spent; the first pass is a
// warm-up and is excluded. On the Sim backend every pass repeats the same
// virtual-time execution, so its counts must be identical pass to pass.
#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cake/metrics/metrics.hpp"
#include "cake/runtime/threaded.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"
#include "oracle.hpp"

namespace perfbench {

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names{"throughput_eps", "setup_s",
                                              "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names{
      "batch",          "routing.publish", "sim.run",          "churn.op",
      "event.image_of", "routing.encode",  "routing.decode",   "index.match.stage1",
      "index.match.stage2", "index.match.stage3", "weaken.image", "weaken.filter",
      "filter.exact",   "index.add",       "index.remove",     "journal.append",
      "trace.empty"};
  return names;
}

namespace {

// ---- Per-pass counters -------------------------------------------------

constexpr std::size_t kStages = 3;

/// Counters read from the overlay's public accessors after a pass. On the
/// Sim backend every field is a deterministic function of the seed.
struct Counts {
  std::uint64_t events = 0;
  std::array<std::uint64_t, kStages + 1> received{};
  std::array<std::uint64_t, kStages + 1> matched{};
  std::array<double, kStages + 1> mr{};
  std::array<double, kStages + 1> table_entries{};
  std::uint64_t forwarded = 0;
  std::uint64_t control = 0;
  std::uint64_t buffered = 0;
  std::uint64_t replayed = 0;
  std::uint64_t journaled = 0;
  std::uint64_t sub_received = 0;
  std::uint64_t sub_delivered = 0;
  std::uint64_t exact_checks = 0;
  std::uint64_t stalled = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t help_drained = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t shed = 0;
  link::LinkCounters link;
  Verdict verdict;

  [[nodiscard]] std::vector<std::uint64_t> fingerprint() const {
    std::vector<std::uint64_t> f{events,          forwarded,         control,
                                 buffered,        replayed,          journaled,
                                 sub_received,    sub_delivered,     stalled,
                                 messages,        bytes,             journal_bytes,
                                 shed,            link.data_sent,    link.retransmits,
                                 link.acks_sent,  link.credit_stalls, verdict.expected,
                                 verdict.delivered, verdict.missed,  verdict.duplicates,
                                 verdict.spurious};
    f.insert(f.end(), received.begin(), received.end());
    f.insert(f.end(), matched.begin(), matched.end());
    return f;
  }
};

std::uint64_t control_received(const routing::Overlay& overlay) {
  std::uint64_t total = 0;
  for (const auto& broker : overlay.brokers()) total += broker->stats().control_received;
  return total;
}

Counts collect(routing::Overlay& overlay, std::uint64_t events) {
  Counts c;
  c.events = events;
  std::array<std::size_t, kStages + 1> brokers{};
  for (const auto& broker : overlay.brokers()) {
    const routing::BrokerStats s = broker->stats();
    const std::size_t stage = std::min(broker->stage(), kStages);
    c.received[stage] += s.events_received;
    c.matched[stage] += s.events_matched;
    c.table_entries[stage] += static_cast<double>(s.filters);
    ++brokers[stage];
    c.forwarded += s.events_forwarded;
    c.control += s.control_received;
    c.buffered += s.events_buffered;
    c.replayed += s.events_replayed;
    c.journaled += s.events_journaled;
    if (const journal::MemStorage* storage = overlay.storage_for(broker->id()))
      c.journal_bytes += storage->total_bytes();
  }
  for (std::size_t s = 1; s <= kStages; ++s)
    if (brokers[s] > 0) c.table_entries[s] /= static_cast<double>(brokers[s]);
  for (const auto& sub : overlay.subscribers()) {
    c.sub_received += sub->stats().events_received;
    c.sub_delivered += sub->stats().events_delivered;
    c.stalled += sub->stats().events_stalled;
    c.exact_checks += sub->stats().events_received * sub->subscriptions();
  }
  std::vector<metrics::NodeLoad> loads = metrics::broker_loads(overlay);
  const std::vector<metrics::NodeLoad> subs = metrics::subscriber_loads(overlay);
  loads.insert(loads.end(), subs.begin(), subs.end());
  for (const metrics::StageSummary& row :
       metrics::summarize_by_stage(loads, events, overlay.subscribers().size()))
    if (row.stage <= kStages) c.mr[row.stage] = row.node_avg_mr;
  c.messages = overlay.network().total_messages();
  c.bytes = overlay.network().total_bytes();
  c.help_drained = overlay.network().help_drained();
  c.shed = metrics::shed_ledger(overlay).total_shed();
  c.link = overlay.link_counters();
  return c;
}

/// Costs of one pass that the wall clock and the process counters see.
struct Timing {
  double setup_s = 0.0;
  double window_s = 0.0;  ///< first publish to quiescence after the last
  double churn_s = 0.0;   ///< Σ subscription operations, each to quiescence
  std::uint64_t ops = 0;
  std::uint64_t setup_ops = 0;
  std::uint64_t setup_control = 0;
  std::uint64_t churn_control = 0;
  std::uint64_t allocs = 0;     ///< operator-new calls in the window
  std::int64_t cpu_ns = 0;      ///< CPU of the threads doing the work
  std::uint64_t tasks = 0;      ///< scheduler closures / lane tasks
  std::uint64_t batches = 0;    ///< lane wakeups (Threaded)
  double run_ns = 0.0;          ///< Σ Overlay::run time in the window
  double publish_ns = 0.0;      ///< Σ publish() time in the window
  std::vector<std::int64_t> setup_steps;  ///< ns per set-up step
  std::vector<std::int64_t> steps;        ///< ns per script step, to quiescence
};

/// Keeps, step by step, the fastest time seen over the measured passes.
/// On Sim every pass does the same work step for step, and interference
/// from other tenants of the host only ever adds time, so the sum of the
/// fastest times is the run's steadiest estimate of what the work costs.
void keep_fastest(std::vector<std::int64_t>& fastest,
                  const std::vector<std::int64_t>& pass) {
  if (fastest.empty()) {
    fastest = pass;
    return;
  }
  if (fastest.size() != pass.size()) throw std::logic_error("passes ran different scripts");
  for (std::size_t k = 0; k < pass.size(); ++k) fastest[k] = std::min(fastest[k], pass[k]);
}

/// Σ fastest[k] over [first, last], in seconds.
double sum_s(const std::vector<std::int64_t>& fastest, std::size_t first, std::size_t last) {
  std::int64_t total = 0;
  for (std::size_t k = first; k <= last && k < fastest.size(); ++k) total += fastest[k];
  return static_cast<double>(total) / 1e9;
}

/// Values summarised over the measured passes of a run.
struct Summary {
  std::vector<double> setup_s;
  std::vector<double> throughput;
  std::vector<double> churn_ops_per_s;
  std::vector<double> ns_per_event[2];  ///< untraced, traced
  Verdict verdict;
  std::uint64_t shed = 0;
  std::uint64_t passes = 0;
};

void add_failed_share(Report& report, const Verdict& v, std::uint64_t shed) {
  report.note("oracle.expected", static_cast<double>(v.expected), "count");
  report.note("oracle.missed", static_cast<double>(v.missed), "count");
  report.note("oracle.duplicates", static_cast<double>(v.duplicates), "count");
  report.note("oracle.spurious", static_cast<double>(v.spurious), "count");
  report.note("shed.total", static_cast<double>(shed), "count");
  report.note("failed_share",
              v.expected == 0 ? 1.0
                              : static_cast<double>(v.failed() + shed) /
                                    static_cast<double>(v.expected),
              "ratio");
}

void add_layer_counts(Report& report, const Counts& c, const Timing& t,
                      bool sim) {
  const double events = static_cast<double>(std::max<std::uint64_t>(c.events, 1));
  for (std::size_t s = 1; s <= kStages; ++s) {
    report.add("routing.mr.stage" + std::to_string(s), c.mr[s], "ratio");
    report.add("routing.table_entries.stage" + std::to_string(s),
               c.table_entries[s], "count");
  }
  report.add("routing.spurious_share",
             c.sub_received == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(c.sub_delivered) /
                             static_cast<double>(c.sub_received),
             "ratio");
  report.add("routing.forwards_per_event", static_cast<double>(c.forwarded) / events,
             "count");
  report.add("routing.control_msgs_per_op",
             t.ops > 0 ? static_cast<double>(t.churn_control) / static_cast<double>(t.ops)
                       : static_cast<double>(t.setup_control) /
                             static_cast<double>(std::max<std::uint64_t>(t.setup_ops, 1)),
             "count");
  report.add("routing.publish_ns", t.publish_ns / events, "ns");
  report.add("sim.run_ns_per_event", t.run_ns / events, "ns");
  report.add("sim.msgs_per_event", static_cast<double>(c.messages) / events, "count");
  report.add("sim.bytes_per_event", static_cast<double>(c.bytes) / events, "B");
  report.add("sim.help_drained", static_cast<double>(c.help_drained), "count");
  report.add("link.acks_per_event",
             static_cast<double>(c.link.acks_sent) / events, "count");
  report.add("link.retransmits", static_cast<double>(c.link.retransmits), "count");
  report.add("link.credit_stalls", static_cast<double>(c.link.credit_stalls), "count");
  report.add("journal.bytes_per_event",
             static_cast<double>(c.journal_bytes) / events, "B");
  report.add("health.parked", static_cast<double>(c.buffered + c.stalled), "count");
  report.add("health.replayed", static_cast<double>(c.replayed), "count");
  report.add("shed.total", static_cast<double>(c.shed), "count");
  report.add("runtime.tasks_per_event", static_cast<double>(t.tasks) / events,
             "count");
  report.add("runtime.mean_batch",
             sim || t.batches == 0
                 ? 1.0
                 : static_cast<double>(t.tasks) / static_cast<double>(t.batches),
             "count");
  report.add("runtime.worker_cpu_us_per_event",
             static_cast<double>(t.cpu_ns) / 1000.0 / events, "us");
  report.add("alloc.per_event", static_cast<double>(t.allocs) / events, "count");
  report.add("oracle.missed", static_cast<double>(c.verdict.missed), "count");
  report.add("oracle.duplicates", static_cast<double>(c.verdict.duplicates), "count");
  report.add("oracle.spurious", static_cast<double>(c.verdict.spurious), "count");
}

void fill_layer_calls(LayerInputs& layers, const Counts& c) {
  const double events = static_cast<double>(std::max<std::uint64_t>(c.events, 1));
  layers.decode_calls = static_cast<double>(c.sub_received) / events;
  layers.exact_calls = static_cast<double>(c.exact_checks) / events;
  layers.journal_calls = static_cast<double>(c.journaled) / events;
  for (std::size_t s = 1; s <= kStages; ++s) {
    layers.match_calls[s] = static_cast<double>(c.received[s]) / events;
    layers.table_entries[s] = c.table_entries[s];
  }
}

/// The JSON result must carry exactly the metrics BENCHMARK.json names.
void check_names(const Report& report, bool trace) {
  std::vector<std::string> got = report.names();
  std::vector<std::string> want = trace ? per_layer_names() : end_to_end_names();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) throw std::logic_error("report metrics differ from the declared set");
}

// ---- Biblio workloads (Sim backend) ------------------------------------

struct BiblioSpec {
  bool churn = false;
  std::size_t subscribers = 150;
  std::size_t subs_each = 20;
  std::size_t wildcard_every = 10;  ///< every tenth subscriber wildcards title
  std::size_t durable_every = 0;    ///< every n-th subscriber is durable
  std::size_t batches = 20;
  std::size_t batch_events = 1000;
  std::size_t replaces_per_gap = 0;
};

BiblioSpec biblio_sim_spec() { return BiblioSpec{}; }

BiblioSpec biblio_churn_spec() {
  BiblioSpec spec;
  spec.churn = true;
  spec.durable_every = 10;
  spec.batches = 20;
  spec.batch_events = 500;
  spec.replaces_per_gap = 20;
  return spec;
}

struct Step {
  enum Kind { Batch, Subscribe, Unsubscribe, Detach, Resume, Stall, Unstall };
  Kind kind = Batch;
  std::uint32_t arg = 0;  ///< batch, subscription or subscriber index
};

struct BiblioInputs {
  std::vector<filter::ConjunctiveFilter> filters;  ///< every subscription
  std::vector<std::uint32_t> owner;                ///< subscriber per subscription
  std::vector<bool> durable;                       ///< per subscriber
  std::size_t base = 0;  ///< subscriptions [0, base) are made at set-up
  std::vector<workload::Publication> events;
  std::vector<Step> script;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> churn;
  std::vector<Delivery> expected;
};

BiblioInputs make_biblio_inputs(const BiblioSpec& spec, std::uint64_t seed) {
  BiblioInputs in;
  workload::BiblioGenerator gen{workload::BiblioConfig{}, seed};
  util::Rng rng{seed ^ 0x5eedc4a7e5ull};
  in.durable.assign(spec.subscribers, false);
  for (std::size_t s = 0; s < spec.subscribers; ++s) {
    const bool wildcard = spec.wildcard_every != 0 && s % spec.wildcard_every == 0;
    in.durable[s] = spec.durable_every != 0 && s % spec.durable_every == 1;
    for (std::size_t k = 0; k < spec.subs_each; ++k) {
      in.filters.push_back(gen.next_subscription(wildcard ? 1 : 0));
      in.owner.push_back(static_cast<std::uint32_t>(s));
    }
  }
  in.base = in.filters.size();
  const std::size_t n_events = spec.batches * spec.batch_events;
  for (std::size_t e = 0; e < n_events; ++e) in.events.emplace_back(gen.next_event());

  // Liveness interval [from, to) in batches, per subscription.
  std::vector<std::uint32_t> from(in.base, 0);
  std::vector<std::uint32_t> to(in.base, static_cast<std::uint32_t>(spec.batches));
  std::vector<std::uint32_t> durables;
  std::vector<std::uint32_t> plain;
  for (std::uint32_t s = 0; s < spec.subscribers; ++s)
    (in.durable[s] ? durables : plain).push_back(s);
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::uint32_t detached = kNone;
  std::uint32_t stalled = kNone;
  std::size_t next_durable = 0;
  std::size_t next_plain = 0;
  auto settle = [&] {
    if (detached != kNone) in.script.push_back({Step::Resume, detached});
    if (stalled != kNone) in.script.push_back({Step::Unstall, stalled});
    detached = kNone;
    stalled = kNone;
  };
  for (std::uint32_t b = 0; b < spec.batches; ++b) {
    if (spec.churn && b > 0) {
      settle();
      if (b % 2 == 1 && !durables.empty()) {
        detached = durables[next_durable++ % durables.size()];
        in.script.push_back({Step::Detach, detached});
        stalled = plain[next_plain++ % plain.size()];
        in.script.push_back({Step::Stall, stalled});
      }
      for (std::size_t r = 0; r < spec.replaces_per_gap; ++r) {
        // A live, non-durable subscription of a subscriber that is not
        // stalled: unsubscribe it and subscribe a fresh filter in its place.
        std::uint32_t victim = 0;
        do {
          victim = static_cast<std::uint32_t>(rng.below(in.filters.size()));
        } while (to[victim] != spec.batches || from[victim] >= b ||
                 in.durable[in.owner[victim]] ||
                 in.owner[victim] == stalled);
        const auto fresh = static_cast<std::uint32_t>(in.filters.size());
        in.filters.push_back(gen.next_subscription(
            spec.wildcard_every != 0 && in.owner[victim] % spec.wildcard_every == 0
                ? 1
                : 0));
        in.owner.push_back(in.owner[victim]);
        from.push_back(b);
        to.push_back(static_cast<std::uint32_t>(spec.batches));
        to[victim] = b;
        in.script.push_back({Step::Unsubscribe, victim});
        in.script.push_back({Step::Subscribe, fresh});
        in.churn.emplace_back(victim, fresh);
      }
    }
    in.script.push_back({Step::Batch, b});
  }
  settle();

  const std::size_t per_batch = spec.batch_events;
  in.expected = expected_deliveries(
      in.filters, in.events.size(),
      [&](std::size_t e) { return event::image_of(in.events[e]); },
      [&](std::size_t e, std::uint32_t sub) {
        const auto b = static_cast<std::uint32_t>(e / per_batch);
        return from[sub] <= b && b < to[sub];
      },
      [](std::size_t, const event::EventImage& image) { return content_key(image); });
  return in;
}

routing::OverlayConfig biblio_overlay_config(const BiblioSpec& spec,
                                             std::uint64_t seed) {
  routing::OverlayConfig config;
  config.stage_counts = {1, 10, 100};
  config.seed = seed;
  if (spec.churn) {
    config.link.reliability = link::Reliability::Reliable;
    config.link.credit = true;
    config.durability = routing::Durability::Journal;
  }
  return config;
}

struct BiblioPass {
  Counts counts;
  Timing timing;
};

BiblioPass run_biblio_pass(const BiblioSpec& spec, const BiblioInputs& in,
                           std::uint64_t seed, Spans* spans) {
  BiblioPass pass;
  Timing& t = pass.timing;
  // Declared before the overlay, whose handlers append to it.
  std::vector<Delivery> actual;
  actual.reserve(in.expected.size() + in.expected.size() / 8 + 64);
  std::vector<std::uint64_t> tokens(in.filters.size(), 0);

  const std::int64_t setup_start = now_ns();
  std::int64_t step_start = setup_start;
  auto end_setup_step = [&] {
    const std::int64_t now = now_ns();
    t.setup_steps.push_back(now - step_start);
    step_start = now;
  };
  routing::Overlay overlay{biblio_overlay_config(spec, seed)};
  routing::PublisherNode& pub = overlay.add_publisher();
  pub.advertise(workload::BiblioGenerator::schema(overlay.stages() + 1));
  overlay.run();
  end_setup_step();
  auto subscribe = [&](std::uint32_t sub) {
    routing::SubscriberNode& node = *overlay.subscribers()[in.owner[sub]];
    tokens[sub] = node.subscribe(
        in.filters[sub],
        [&actual, sub](const event::EventImage& image) {
          actual.push_back(Delivery{sub, content_key(image)});
        },
        {}, in.durable[in.owner[sub]]);
  };
  for (std::size_t s = 0; s < spec.subscribers; ++s) {
    overlay.add_subscriber();
    for (std::size_t k = 0; k < spec.subs_each; ++k)
      subscribe(static_cast<std::uint32_t>(s * spec.subs_each + k));
    overlay.run();
    end_setup_step();
  }
  t.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  t.setup_ops = in.base;
  t.setup_control = control_received(overlay);

  const std::uint64_t allocs_before = allocs();
  const std::int64_t cpu_before = this_thread_cpu_ns();
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;
  for (const Step& step : in.script) {
    if (step.kind == Step::Batch) {
      const std::int64_t start = now_ns();
      if (window_start == 0) window_start = start;
      const std::uint32_t span = spans ? spans->open(kSpanBatch, step.arg) : 0;
      const std::size_t first = step.arg * spec.batch_events;
      for (std::size_t e = first; e < first + spec.batch_events; ++e) {
        if (spans) {
          const std::uint32_t p = spans->open(kSpanPublish, e, span);
          const std::int64_t p0 = now_ns();
          pub.publish(in.events[e]);
          t.publish_ns += static_cast<double>(now_ns() - p0);
          spans->close(p);
        } else {
          pub.publish(in.events[e]);
        }
      }
      const std::int64_t run_start = now_ns();
      const std::uint32_t r = spans ? spans->open(kSpanRun, step.arg, span) : 0;
      t.tasks += overlay.run();
      if (spans) spans->close(r);
      window_end = now_ns();
      t.run_ns += static_cast<double>(window_end - run_start);
      t.steps.push_back(window_end - start);
      if (spans) spans->close(span);
      continue;
    }
    const std::uint64_t control_before = control_received(overlay);
    const std::int64_t start = now_ns();
    const std::uint32_t span = spans ? spans->open(kSpanChurnOp, step.arg) : 0;
    switch (step.kind) {
      case Step::Subscribe:
        subscribe(step.arg);
        break;
      case Step::Unsubscribe:
        overlay.subscribers()[in.owner[step.arg]]->unsubscribe(tokens[step.arg]);
        break;
      case Step::Detach:
        overlay.subscribers()[step.arg]->detach();
        break;
      case Step::Resume:
        overlay.subscribers()[step.arg]->resume();
        break;
      case Step::Stall:
        overlay.subscribers()[step.arg]->stall();
        break;
      case Step::Unstall:
        overlay.subscribers()[step.arg]->unstall();
        break;
      case Step::Batch:
        break;
    }
    t.tasks += overlay.run();
    if (spans) spans->close(span);
    const std::int64_t end = now_ns();
    t.steps.push_back(end - start);
    t.churn_s += static_cast<double>(end - start) / 1e9;
    ++t.ops;
    t.churn_control += control_received(overlay) - control_before;
  }
  t.window_s = static_cast<double>(window_end - window_start) / 1e9;
  t.allocs = allocs() - allocs_before;
  t.cpu_ns = this_thread_cpu_ns() - cpu_before;

  pass.counts = collect(overlay, in.events.size());
  std::vector<Delivery> expected = in.expected;
  pass.counts.verdict = compare(expected, actual);
  return pass;
}

int run_biblio(const Options& o, const BiblioSpec& spec) {
  const std::int64_t run_start = now_ns();
  const BiblioInputs in = make_biblio_inputs(spec, o.seed);
  std::cout << "workload " << o.workload << ": " << spec.subscribers
            << " subscribers, " << in.base << " subscriptions, "
            << in.events.size() << " events in " << spec.batches
            << " batches, " << in.churn.size() << " replacements and "
            << in.expected.size() << " deliveries expected per pass\n";

  Summary sum;
  std::vector<std::uint64_t> reference;
  bool deterministic = true;
  Counts last_counts;
  Timing last_timing;
  Spans spans{o.trace ? 1u << 20 : 0};
  std::vector<std::int64_t> fastest_setup;
  std::vector<std::int64_t> fastest_steps;
  // The timed window: the script steps from the first batch to the last,
  // the subscription operations between batches included.
  std::size_t first_batch = in.script.size();
  std::size_t last_batch = 0;
  for (std::size_t k = 0; k < in.script.size(); ++k) {
    if (in.script[k].kind != Step::Batch) continue;
    first_batch = std::min(first_batch, k);
    last_batch = k;
  }
  const std::int64_t measure_start = now_ns();
  for (std::size_t pass = 0;; ++pass) {
    // Traced runs alternate untraced and traced passes, so the two can be
    // compared for trace.overhead_share.
    const bool traced = o.trace && pass % 2 == 0 && pass > 0;
    BiblioPass p = run_biblio_pass(spec, in, o.seed, traced ? &spans : nullptr);
    const std::vector<std::uint64_t> fp = p.counts.fingerprint();
    if (pass == 0) {
      // Every later pass must repeat these counts (checked below), so the
      // oracle's verdict on this one stands for each pass of the run.
      reference = fp;
      sum.verdict = p.counts.verdict;
      sum.shed = p.counts.shed;
    } else {
      deterministic = deterministic && fp == reference;
      sum.setup_s.push_back(p.timing.setup_s);
      sum.throughput.push_back(static_cast<double>(in.events.size()) /
                               p.timing.window_s);
      if (p.timing.ops > 0)
        sum.churn_ops_per_s.push_back(static_cast<double>(p.timing.ops) /
                                      p.timing.churn_s);
      sum.ns_per_event[traced ? 1 : 0].push_back(
          p.timing.window_s * 1e9 / static_cast<double>(in.events.size()));
      ++sum.passes;
      if (!traced) {
        keep_fastest(fastest_setup, p.timing.setup_steps);
        keep_fastest(fastest_steps, p.timing.steps);
      }
    }
    std::cout << "pass " << pass << (traced ? " traced" : "") << ": setup "
              << p.timing.setup_s << " s, window " << p.timing.window_s
              << " s, churn " << p.timing.churn_s << " s, cpu "
              << static_cast<double>(p.timing.cpu_ns) / 1e9 << " s\n";
    const bool last_pass =
        sum.passes >= 3 &&
        static_cast<double>(now_ns() - measure_start) / 1e9 >= o.seconds &&
        (!o.trace || traced);
    if (last_pass) {
      last_counts = p.counts;
      last_timing = p.timing;
      break;
    }
  }

  Report report;
  const Counts& c = last_counts;
  std::cout << "passes " << sum.passes << " (+1 warm-up), deterministic "
            << (deterministic ? "yes" : "NO") << ", run "
            << static_cast<double>(now_ns() - run_start) / 1e9 << " s\n";
  if (!o.trace) {
    report.add("throughput_eps",
               static_cast<double>(in.events.size()) /
                   sum_s(fastest_steps, first_batch, last_batch),
               "1/s");
    report.add("setup_s", sum_s(fastest_setup, 0, fastest_setup.size() - 1), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (spec.churn) {
      double churn_s = 0.0;
      for (std::size_t k = 0; k < in.script.size(); ++k)
        if (in.script[k].kind != Step::Batch) churn_s += sum_s(fastest_steps, k, k);
      report.note("churn_ops_per_s",
                  static_cast<double>(in.script.size() - spec.batches) / churn_s, "1/s");
      report.note("churn_ops_per_s.pass_median", median(sum.churn_ops_per_s), "1/s");
    }
    report.note("throughput_eps.pass_median", median(sum.throughput), "1/s");
    report.note("setup_s.pass_median", median(sum.setup_s), "s");
    add_failed_share(report, sum.verdict, sum.shed);
  } else {
    add_layer_counts(report, c, last_timing, /*sim=*/true);
    report.add("runtime.worker_busy_share",
               static_cast<double>(last_timing.cpu_ns) / 1e9 / last_timing.window_s,
               "ratio");
    report.add("harness.generator_late_p99_us", 0.0, "us");
    report.add("trace.overhead_share",
               median(sum.ns_per_event[1]) / median(sum.ns_per_event[0]) - 1.0,
               "ratio");
    LayerInputs layers;
    for (const auto& e : in.events) layers.events.push_back(&e);
    layers.subscriptions = in.filters;
    layers.subs_each = spec.subs_each;
    layers.churn = in.churn;
    layers.schema = workload::BiblioGenerator::schema(kStages + 1);
    fill_layer_calls(layers, c);
    layers.traced_ns_per_event = median(sum.ns_per_event[1]);
    measure_layers(layers, spans, report);
    if (!o.trace_dir.empty())
      spans.write(o.trace_dir + "/" + o.workload + ".spans.jsonl", span_names());
  }
  // The oracle's verdict on one pass, which every pass repeats. A spurious
  // delivery (an event the subscription does not match) or a pass whose
  // counts differ from the warm-up makes the run incorrect; missed,
  // duplicate and shed deliveries are failed operations. Reporting one
  // pass keeps `attempted` and `failed` a function of the seed alone, not
  // of how many passes the host's speed allowed.
  const bool correct = deterministic && sum.verdict.spurious == 0;
  check_names(report, o.trace);
  report.print(correct, sum.verdict.expected, sum.verdict.failed() + sum.shed);
  return 0;
}

// ---- Stock workload (Threaded backend) ---------------------------------

constexpr std::size_t kStockWorkers = 2;
constexpr std::size_t kStockPublishers = 4;
constexpr std::size_t kStockSubscribers = 32;
constexpr double kLowRate = 20'000.0;
constexpr double kHighRate = 50'000.0;
constexpr double kPhaseSeconds = 1.0;
constexpr double kWarmupPhaseSeconds = 0.25;
constexpr std::size_t kMaxSlots = 4;  ///< lanes of one overlay, with room

static_assert(kStockSubscribers <= 32, "one bit per subscription in the masks");

/// Per-thread latency histograms and oracle counters, so handlers running
/// on different lanes never share a cache line.
struct alignas(64) Recorder {
  std::array<Histogram, 2> latency;  ///< low, high
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t spurious = 0;
};

/// What the handlers share. The oracle state is one bit per (event,
/// subscription): a fixed footprint, whatever the seed's match rate.
struct StockShared {
  std::array<Recorder, kMaxSlots> slots;
  std::atomic<std::size_t> next_slot{0};
  std::vector<std::int64_t> due_ns;           ///< per event index
  std::vector<std::uint32_t> expected;        ///< per event, subscriptions matched
  std::unique_ptr<std::atomic<std::uint32_t>[]> seen;  ///< per event, delivered
  std::atomic<int> phase{0};
  Spans spans[kMaxSlots];

  /// This thread's slot, assigned on first use. Each pass builds a new
  /// overlay with new lane threads and restarts the numbering.
  std::size_t slot() {
    thread_local std::size_t mine = next_slot.fetch_add(1) % kMaxSlots;
    return mine;
  }
};

int run_stock(const Options& o) {
  const std::int64_t run_start = now_ns();
  // The lane count is part of the workload: pin it even on smaller hosts.
  ::setenv("CAKE_THREADS", std::to_string(kStockWorkers).c_str(), 1);

  workload::StockGenerator gen{workload::StockConfig{}, o.seed};
  std::vector<filter::ConjunctiveFilter> filters;
  for (std::size_t s = 0; s < kStockSubscribers; ++s)
    filters.push_back(gen.next_subscription());
  const auto n_low = static_cast<std::size_t>(kLowRate * kPhaseSeconds);
  const auto n_high = static_cast<std::size_t>(kHighRate * kPhaseSeconds);
  std::vector<workload::Stock> events;
  for (std::size_t i = 0; i < n_low + n_high; ++i) {
    const workload::Stock quote = gen.next();
    // The event index rides in `volume`, which no subscription constrains.
    events.emplace_back(quote.symbol(), quote.price(), static_cast<std::int64_t>(i));
  }
  auto shared = std::make_unique<StockShared>();
  shared->due_ns.assign(events.size(), 0);
  shared->expected.assign(events.size(), 0);
  shared->seen = std::make_unique<std::atomic<std::uint32_t>[]>(events.size());
  std::size_t expected_per_pass = 0;
  for (const Delivery& d : expected_deliveries(
           filters, events.size(), [&](std::size_t e) { return event::image_of(events[e]); },
           [](std::size_t, std::uint32_t) { return true; },
           [](std::size_t e, const event::EventImage&) { return std::uint64_t{e}; })) {
    shared->expected[d.key] |= 1u << d.sub;
    ++expected_per_pass;
  }
  std::cout << "workload " << o.workload << ": " << kStockSubscribers
            << " subscriptions, " << n_low << " events at " << kLowRate
            << "/s then " << n_high << " at " << kHighRate << "/s per pass, "
            << expected_per_pass << " deliveries expected per pass\n";
  if (o.trace)
    for (Spans& s : shared->spans) s = Spans{1u << 17};

  Summary sum;
  Histogram late;
  std::array<Histogram, 2> latency;
  Counts last_counts;
  Timing last_timing;
  bool ok = true;
  const std::int64_t measure_start = now_ns();
  for (std::size_t pass = 0;; ++pass) {
    const bool warmup = pass == 0;
    const bool traced = o.trace && pass % 2 == 0 && pass > 0;
    Timing t;
    const std::vector<pid_t> threads_before = thread_ids();
    const std::int64_t setup_start = now_ns();
    routing::OverlayConfig config;
    config.stage_counts = {1, 2, 4};
    config.backend = routing::OverlayBackend::Threaded;
    config.threaded.workers = kStockWorkers;
    config.seed = o.seed;
    // Push every periodic deadline past the run, so the data plane is all
    // the wall clock sees (the A19 configuration).
    config.broker.ttl = 3'600'000'000;
    config.broker.renew_interval = 1'800'000'000;
    config.broker.reap_interval = 1'800'000'000;
    config.subscriber.renew_interval = 1'800'000'000;
    config.subscriber.auto_renew = false;
    config.link.heartbeat_interval = 1'800'000'000;
    auto overlay = std::make_unique<routing::Overlay>(config);
    std::vector<routing::PublisherNode*> pubs;
    for (std::size_t p = 0; p < kStockPublishers; ++p) {
      routing::PublisherNode& pub = overlay->add_publisher();
      overlay->run_on(pub.id(), [&pub] {
        pub.advertise(workload::StockGenerator::schema());
      });
      pubs.push_back(&pub);
    }
    overlay->run();
    StockShared* sh = shared.get();
    for (std::size_t s = 0; s < kStockSubscribers; ++s) {
      routing::SubscriberNode& sub = overlay->add_subscriber();
      const auto idx = static_cast<std::uint32_t>(s);
      overlay->run_on(sub.id(), [&sub, &filters, sh, idx] {
        sub.subscribe(filters[idx], [sh, idx](const event::EventImage& image) {
          const std::int64_t now = now_ns();
          const auto e = static_cast<std::size_t>(image.find("volume")->as_int());
          Recorder& r = sh->slots[sh->slot()];
          r.latency[sh->phase.load(std::memory_order_relaxed)].add(
              static_cast<std::uint64_t>(std::max<std::int64_t>(now - sh->due_ns[e], 0)));
          ++r.delivered;
          const std::uint32_t bit = 1u << idx;
          const std::uint32_t before =
              sh->seen[e].fetch_or(bit, std::memory_order_relaxed);
          if ((sh->expected[e] & bit) == 0)
            ++r.spurious;
          else if ((before & bit) != 0)
            ++r.duplicates;
        });
      });
    }
    overlay->run();
    t.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
    t.setup_ops = kStockSubscribers;
    t.setup_control = control_received(*overlay);

    auto& transport = dynamic_cast<runtime::ThreadedTransport&>(overlay->transport());
    std::vector<pid_t> lane_threads;
    for (const pid_t tid : thread_ids())
      if (!std::binary_search(threads_before.begin(), threads_before.end(), tid))
        lane_threads.push_back(tid);
    for (Recorder& r : sh->slots) r = Recorder{};
    for (std::size_t e = 0; e < events.size(); ++e) sh->seen[e].store(0);
    sh->next_slot.store(0);

    const double phase_s = warmup ? kWarmupPhaseSeconds : kPhaseSeconds;
    const std::size_t counts[2] = {static_cast<std::size_t>(kLowRate * phase_s),
                                   static_cast<std::size_t>(kHighRate * phase_s)};
    const std::uint64_t allocs_before = allocs();
    const std::int64_t cpu_before = threads_cpu_ns(lane_threads);
    const runtime::ThreadedStats stats_before = transport.stats();
    std::size_t published = 0;
    double window_ns = 0.0;
    for (int ph = 0; ph < 2; ++ph) {
      const std::size_t first = ph == 0 ? 0 : n_low;
      const std::size_t n = counts[ph];
      const double gap_ns = 1e9 / (ph == 0 ? kLowRate : kHighRate);
      sh->phase.store(ph, std::memory_order_relaxed);
      const std::int64_t base = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < n; ++i)
        sh->due_ns[first + i] = base + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t e = first + i;
        const std::int64_t due = sh->due_ns[e];
        std::int64_t now = now_ns();
        while (now < due) now = now_ns();
        if (!warmup) late.add(static_cast<std::uint64_t>(now - due));
        routing::PublisherNode* pub = pubs[e % kStockPublishers];
        const workload::Stock* ev = &events[e];
        if (traced) {
          overlay->post_on(pub->id(), [pub, ev, sh, e] {
            Spans& spans = sh->spans[sh->slot()];
            const std::uint32_t span = spans.open(kSpanPublish, e);
            pub->publish(*ev);
            spans.close(span);
          });
        } else {
          overlay->post_on(pub->id(), [pub, ev] { pub->publish(*ev); });
        }
      }
      const std::int64_t run_start = now_ns();
      overlay->run();
      const std::int64_t end = now_ns();
      t.run_ns += static_cast<double>(end - run_start);
      window_ns += static_cast<double>(end - base);
      published += n;
    }
    t.window_s = window_ns / 1e9;
    t.allocs = allocs() - allocs_before;
    t.cpu_ns = threads_cpu_ns(lane_threads) - cpu_before;
    const runtime::ThreadedStats stats_after = transport.stats();
    t.tasks = stats_after.tasks - stats_before.tasks;
    t.batches = stats_after.batches - stats_before.batches;

    Counts c = collect(*overlay, published);
    overlay.reset();  // joins the lanes: the recorders are quiescent below
    std::array<Histogram, 2> pass_latency;
    for (const Recorder& r : sh->slots) {
      pass_latency[0].merge(r.latency[0]);
      pass_latency[1].merge(r.latency[1]);
      c.verdict.delivered += r.delivered;
      c.verdict.duplicates += r.duplicates;
      c.verdict.spurious += r.spurious;
    }
    // A delivery that never arrived counts as later than any limit in its
    // phase's histogram.
    for (int ph = 0; ph < 2; ++ph) {
      const std::size_t first = ph == 0 ? 0 : n_low;
      std::uint64_t missed = 0;
      for (std::size_t e = first; e < first + counts[ph]; ++e) {
        c.verdict.expected += static_cast<std::uint64_t>(std::popcount(sh->expected[e]));
        missed += static_cast<std::uint64_t>(
            std::popcount(sh->expected[e] & ~sh->seen[e].load()));
      }
      c.verdict.missed += missed;
      pass_latency[ph].add_infinite(missed);
    }
    sum.verdict += c.verdict;
    sum.shed += c.shed;
    if (!warmup) {
      latency[0].merge(pass_latency[0]);
      latency[1].merge(pass_latency[1]);
      sum.setup_s.push_back(t.setup_s);
      sum.throughput.push_back(static_cast<double>(published) / t.window_s);
      sum.ns_per_event[traced ? 1 : 0].push_back(static_cast<double>(t.cpu_ns) /
                                                 static_cast<double>(published));
      ++sum.passes;
    }
    std::cout << "pass " << pass << (warmup ? " (warm-up)" : "")
              << (traced ? " traced" : "") << ": setup "
              << t.setup_s << " s, p50 low/high "
              << pass_latency[0].quantile(0.5) / 1e3 << "/"
              << pass_latency[1].quantile(0.5) / 1e3 << " us, p99 "
              << pass_latency[0].quantile(0.99) / 1e3 << "/"
              << pass_latency[1].quantile(0.99) / 1e3 << " us, missed "
              << c.verdict.missed << ", duplicates " << c.verdict.duplicates
              << ", peak RSS " << peak_rss_mb() << " MB\n";
    ok = ok && c.verdict.spurious == 0;
    last_counts = c;
    last_timing = t;
    const bool done = sum.passes >= 3 &&
                      static_cast<double>(now_ns() - measure_start) / 1e9 >= o.seconds &&
                      (!o.trace || traced);
    if (done) break;
  }

  Report report;
  std::cout << "passes " << sum.passes << " (+1 warm-up), run "
            << static_cast<double>(now_ns() - run_start) / 1e9 << " s\n";
  if (!o.trace) {
    report.add("throughput_eps", median(sum.throughput), "1/s");
    // Set-up spawns the lanes and joins the overlay on them; as on Sim, the
    // fastest of the run's set-ups is the one other tenants disturbed least.
    report.add("setup_s", *std::min_element(sum.setup_s.begin(), sum.setup_s.end()), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("setup_s.pass_median", median(sum.setup_s), "s");
    const char* rate[2] = {"low", "high"};
    for (int ph = 0; ph < 2; ++ph) {
      const std::string suffix = std::string{"_us."} + rate[ph];
      report.note("latency_p50" + suffix, latency[ph].quantile(0.50) / 1e3, "us");
      report.note("latency_p99" + suffix, latency[ph].quantile(0.99) / 1e3, "us");
      report.note("latency_p999" + suffix, latency[ph].quantile(0.999) / 1e3, "us");
      report.note(std::string{"latency_samples."} + rate[ph],
                  static_cast<double>(latency[ph].count()), "count");
    }
    report.note("harness.generator_late_p99_us", late.quantile(0.99) / 1e3, "us");
    add_failed_share(report, sum.verdict, sum.shed);
  } else {
    // One publish per event: the mean recorded publish span, scaled to the
    // last pass's events like the other per-event figures.
    double publish_ns = 0.0;
    std::uint64_t publishes = 0;
    for (const Spans& s : shared->spans) {
      publish_ns += static_cast<double>(s.self_ns(span_names().size())[kSpanPublish]);
      for (const Span& span : s.spans()) publishes += span.name == kSpanPublish;
    }
    last_timing.publish_ns = publish_ns /
                             static_cast<double>(std::max<std::uint64_t>(publishes, 1)) *
                             static_cast<double>(last_counts.events);
    add_layer_counts(report, last_counts, last_timing, /*sim=*/false);
    report.add("runtime.worker_busy_share",
               static_cast<double>(last_timing.cpu_ns) / 1e9 /
                   (last_timing.window_s * kStockWorkers),
               "ratio");
    report.add("harness.generator_late_p99_us", late.quantile(0.99) / 1e3, "us");
    report.add("trace.overhead_share",
               median(sum.ns_per_event[1]) / median(sum.ns_per_event[0]) - 1.0,
               "ratio");
    LayerInputs layers;
    for (const auto& e : events) layers.events.push_back(&e);
    layers.subscriptions = filters;
    layers.schema = workload::StockGenerator::schema();
    fill_layer_calls(layers, last_counts);
    layers.traced_ns_per_event = median(sum.ns_per_event[1]);
    Spans replay{1u << 20};
    measure_layers(layers, replay, report);
    if (!o.trace_dir.empty()) {
      const std::string path = o.trace_dir + "/" + o.workload + ".spans.jsonl";
      for (const Spans& s : shared->spans) s.write(path, span_names());
      replay.write(path, span_names());
    }
  }
  check_names(report, o.trace);
  report.print(ok, sum.verdict.expected, sum.verdict.failed() + sum.shed);
  return 0;
}

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (int s = 1; s <= 3; ++s) {
      n.push_back("routing.mr.stage" + std::to_string(s));
      n.push_back("routing.table_entries.stage" + std::to_string(s));
    }
    for (const char* name :
         {"routing.spurious_share", "routing.forwards_per_event",
          "routing.control_msgs_per_op", "routing.publish_ns", "sim.run_ns_per_event",
          "sim.msgs_per_event", "sim.bytes_per_event", "sim.help_drained",
          "link.acks_per_event", "link.retransmits", "link.credit_stalls",
          "journal.bytes_per_event", "health.parked", "health.replayed", "shed.total",
          "runtime.tasks_per_event", "runtime.mean_batch",
          "runtime.worker_cpu_us_per_event", "alloc.per_event", "oracle.missed",
          "oracle.duplicates", "oracle.spurious", "runtime.worker_busy_share",
          "harness.generator_late_p99_us", "trace.overhead_share",
          "event.image_of_ns", "routing.encode_frame_ns", "routing.decode_frame_ns"})
      n.push_back(name);
    for (int s = 1; s <= 3; ++s) {
      n.push_back("index.match_ns.stage" + std::to_string(s));
      n.push_back("index.matches_per_event.stage" + std::to_string(s));
    }
    for (const char* name :
         {"index.add_ns", "index.remove_ns", "weaken.filter_ns", "weaken.image_ns",
          "filter.exact_ns", "journal.append_ns", "layers.unattributed_share"})
      n.push_back(name);
    return n;
  }();
  return names;
}

namespace {

BiblioSpec small_spec(bool churn) {
  BiblioSpec spec = churn ? biblio_churn_spec() : biblio_sim_spec();
  spec.subscribers = 20;
  spec.subs_each = 5;
  spec.batches = 4;
  spec.batch_events = 200;
  spec.replaces_per_gap = churn ? 3 : 0;
  return spec;
}

}  // namespace

std::vector<std::uint64_t> small_sim_fingerprint(std::uint64_t seed, bool churn) {
  workload::ensure_types_registered();
  const BiblioSpec spec = small_spec(churn);
  const BiblioInputs in = make_biblio_inputs(spec, seed);
  return run_biblio_pass(spec, in, seed, nullptr).counts.fingerprint();
}

std::uint64_t small_sim_input_digest(std::uint64_t seed) {
  workload::ensure_types_registered();
  const BiblioInputs in = make_biblio_inputs(small_spec(true), seed);
  std::uint64_t digest = 0;
  for (const workload::Publication& e : in.events)
    digest = digest * 31 + content_key(event::image_of(e));
  for (const filter::ConjunctiveFilter& f : in.filters)
    digest = digest * 31 + std::hash<std::string>{}(f.to_string());
  return digest;
}

int run_workload(const Options& options) {
  workload::ensure_types_registered();
  if (options.workload == "biblio-sim") return run_biblio(options, biblio_sim_spec());
  if (options.workload == "biblio-churn")
    return run_biblio(options, biblio_churn_spec());
  if (options.workload == "stock-threaded") return run_stock(options);
  std::cerr << "unknown workload '" << options.workload
            << "' (biblio-sim, stock-threaded, biblio-churn)\n";
  return 2;
}

}  // namespace perfbench
