// Per-layer replay of the traced run: the pass's own inputs are fed through
// each layer's public functions, one span per call, and the layer costs are
// combined with the pass's counters (calls per event) into the attribution
// check layers.unattributed_share.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "cake/index/index.hpp"
#include "cake/journal/journal.hpp"
#include "cake/routing/broker.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/weaken/weaken.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Events replayed per layer: enough calls for a stable mean, few enough
/// that the replay stays a small part of the traced run.
constexpr std::size_t kReplayEvents = 5000;

/// Mean duration of an empty span: the clock reads and bookkeeping every
/// span adds to the call it wraps, subtracted from the per-call figures.
double empty_span_ns(Spans& spans) {
  std::vector<double> blocks;
  for (int b = 0; b < 9; ++b) {
    std::int64_t total = 0;
    for (int i = 0; i < 1000; ++i) total += spans.close(spans.open(kSpanCount, 0));
    blocks.push_back(static_cast<double>(total) / 1000.0);
  }
  return median(blocks);
}

struct Timer {
  Spans& spans;
  double overhead_ns = 0.0;
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  template <class Fn>
  void operator()(std::uint32_t name, std::uint64_t event, Fn&& fn) {
    const std::uint32_t span = spans.open(name, event);
    fn();
    if (span == 0) return;  // the log is full: the call went unmeasured
    ns += spans.close(span);
    ++calls;
  }
  [[nodiscard]] double per_call() const {
    if (calls == 0) return 0.0;
    return std::max(0.0, static_cast<double>(ns) / static_cast<double>(calls) - overhead_ns);
  }
};

}  // namespace

void measure_layers(const LayerInputs& in, Spans& spans, Report& report) {
  const std::size_t n = std::min(in.events.size(), kReplayEvents);
  constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
  const double overhead = empty_span_ns(spans);

  std::vector<event::EventImage> images(n);
  Timer image_of{spans, overhead};
  for (std::size_t i = 0; i < n; ++i)
    image_of(kSpanImageOf, i, [&] { images[i] = event::image_of(*in.events[i]); });

  std::vector<sim::Network::Payload> frames(n);
  Timer encode{spans, overhead};
  for (std::size_t i = 0; i < n; ++i)
    encode(kSpanEncode, i, [&] {
      frames[i] = routing::encode_event_frame(images[i], 0, i + 1, 0);
    });

  Timer decode{spans, overhead};
  for (std::size_t i = 0; i < n; ++i)
    decode(kSpanDecode, i, [&] {
      const routing::Packet packet = routing::decode(frames[i]);
      if (packet.index() == std::variant_npos) std::abort();
    });

  journal::MemStorage storage;
  journal::Journal journal{storage};
  Timer append{spans, overhead};
  for (std::size_t i = 0; i < n; ++i)
    append(kSpanJournalAppend, i, [&] { journal.append_event(frames[i]); });

  Timer weaken_image{spans, overhead};
  for (std::size_t s = 1; s <= 3; ++s)
    for (std::size_t i = 0; i < n; ++i)
      weaken_image(kSpanWeakenImage, i, [&] {
        const event::EventImage w = weaken::weaken_image(images[i], in.schema, s);
        if (w.attributes().size() > images[i].attributes().size()) std::abort();
      });

  // One table per stage with the overlay's engine (both overlays keep the
  // BrokerConfig default), holding as many distinct weakened subscriptions
  // as the stage's brokers hold on average.
  const index::Engine engine = routing::BrokerConfig{}.engine;
  Timer weaken_filter{spans, overhead};
  Timer add{spans, overhead};
  Timer remove{spans, overhead};
  Timer match[4] = {Timer{spans, overhead}, Timer{spans, overhead},
                    Timer{spans, overhead}, Timer{spans, overhead}};
  double matches[4] = {};
  const std::uint32_t match_span[4] = {0, kSpanMatch1, kSpanMatch2, kSpanMatch3};
  for (std::size_t s = 1; s <= 3; ++s) {
    const auto target = static_cast<std::size_t>(std::lround(in.table_entries[s]));
    std::unique_ptr<index::MatchIndex> table = index::make_index(engine);
    std::set<std::string> seen;
    std::unordered_map<std::uint32_t, index::FilterId> ids;
    auto weakened = [&](std::uint32_t sub) {
      filter::ConjunctiveFilter w;
      weaken_filter(kSpanWeakenFilter, kNoEvent, [&] {
        w = weaken::weaken_filter(in.subscriptions[sub], in.schema, s);
      });
      return w;
    };
    for (std::uint32_t sub = 0;
         sub < in.subscriptions.size() && table->size() < std::max<std::size_t>(target, 1);
         ++sub) {
      filter::ConjunctiveFilter w = weakened(sub);
      if (!seen.insert(w.to_string()).second) continue;
      add(kSpanIndexAdd, kNoEvent, [&] { ids[sub] = table->add(std::move(w)); });
    }
    std::vector<index::FilterId> out;
    index::MatchScratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
      match[s](match_span[s], i, [&] { table->match(images[i], out, scratch); });
      matches[s] += static_cast<double>(out.size());
    }
    // The churn operations against the same table: the removed form leaves
    // when it is in the table, the replacement's weakened form joins it.
    for (const auto& [removed, added] : in.churn) {
      if (const auto it = ids.find(removed); it != ids.end()) {
        remove(kSpanIndexRemove, kNoEvent, [&] { table->remove(it->second); });
        ids.erase(it);
      }
      filter::ConjunctiveFilter w = weakened(added);
      add(kSpanIndexAdd, kNoEvent, [&] { ids[added] = table->add(std::move(w)); });
    }
    for (const auto& [sub, id] : ids)
      remove(kSpanIndexRemove, kNoEvent, [&] { table->remove(id); });
  }

  // The exact filter checks a stage-0 arrival makes: every subscription
  // of one subscriber (subscriber i for event i) against the event.
  Timer exact{spans, overhead};
  const auto& registry = reflect::TypeRegistry::global();
  std::uint64_t exact_hits = 0;
  const std::size_t subscribers = std::max<std::size_t>(
      in.subscriptions.size() / std::max<std::size_t>(in.subs_each, 1), 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first = (i % subscribers) * in.subs_each;
    for (std::size_t k = first; k < first + in.subs_each && k < in.subscriptions.size(); ++k)
      exact(kSpanExact, i, [&] {
        exact_hits += in.subscriptions[k].matches(images[i], registry);
      });
  }

  report.note("trace.empty_span_ns", overhead, "ns");
  report.note("trace.dropped_spans", static_cast<double>(spans.dropped()), "count");
  report.note("filter.exact_hit_share",
              exact.calls == 0 ? 0.0
                               : static_cast<double>(exact_hits) /
                                     static_cast<double>(exact.calls),
              "ratio");
  report.add("event.image_of_ns", image_of.per_call(), "ns");
  report.add("routing.encode_frame_ns", encode.per_call(), "ns");
  report.add("routing.decode_frame_ns", decode.per_call(), "ns");
  for (std::size_t s = 1; s <= 3; ++s) {
    report.add("index.match_ns.stage" + std::to_string(s), match[s].per_call(), "ns");
    report.add("index.matches_per_event.stage" + std::to_string(s),
               n == 0 ? 0.0 : matches[s] / static_cast<double>(n), "count");
  }
  report.add("index.add_ns", add.per_call(), "ns");
  report.add("index.remove_ns", remove.per_call(), "ns");
  report.add("weaken.filter_ns", weaken_filter.per_call(), "ns");
  report.add("weaken.image_ns", weaken_image.per_call(), "ns");
  report.add("filter.exact_ns", exact.per_call(), "ns");
  report.add("journal.append_ns", append.per_call(), "ns");

  // Layer cost per published event: ns per call × calls per event, where
  // the calls per event come from the pass's counters. The broker's event
  // path does not weaken images (pass-through matching), so weaken.image
  // carries no calls.
  double attributed = image_of.per_call() + encode.per_call() +
                      decode.per_call() * in.decode_calls +
                      exact.per_call() * in.exact_calls +
                      append.per_call() * in.journal_calls;
  for (std::size_t s = 1; s <= 3; ++s) attributed += match[s].per_call() * in.match_calls[s];
  report.add("layers.unattributed_share",
             in.traced_ns_per_event > 0.0 ? 1.0 - attributed / in.traced_ns_per_event
                                          : 0.0,
             "ratio");
}

}  // namespace perfbench
