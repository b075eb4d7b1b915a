#include "cake/core/replay.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cake/routing/overlay.hpp"
#include "cake/workload/types.hpp"

namespace cake::core {
namespace {

// uid → subscription index → handler fire count, the delivery multiset in
// the same shape the chaos harness books it.
using Counts =
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::size_t, std::uint64_t>>;
using Expected = std::unordered_map<std::uint64_t, std::vector<std::size_t>>;

/// Copies `image` with a unique `uid` attribute appended so handlers can
/// identify the event without trusting any routing-layer id. Filters never
/// constrain `uid`; matching is unaffected.
event::EventImage tag(const event::EventImage& image, std::uint64_t uid) {
  std::vector<event::ImageAttribute> attrs = image.attributes();
  attrs.push_back({"uid", value::Value{static_cast<std::int64_t>(uid)}});
  return event::EventImage{image.type_name(), std::move(attrs),
                           image.opaque()};
}

/// The workload seed the chaos harness derives from a plan seed (its
/// `workload_seed == 0` path) — sharing the derivation is what lets
/// `cake_replay --seed <plan seed>` rebuild a trial's subscription set.
std::uint64_t wseed_of(std::uint64_t seed) { return seed ^ 0xB1B10ULL; }

/// Builds the replay overlay: best-effort links (nothing injects faults
/// here); the subscribers' event-id dedup collapses duplicate journal
/// records to exactly-once like any dual-path duplicate.
routing::OverlayConfig overlay_config(const ReplayConfig& cfg,
                                      std::uint64_t seed) {
  routing::OverlayConfig oc;
  oc.stage_counts = cfg.stage_counts;
  oc.seed = seed ^ 0x0E11A5ULL;
  return oc;
}

/// Diffs the booked delivery multiset against the matcher's prediction and
/// fingerprints it. The fingerprint is FNV-1a over the sorted
/// (uid, subscription, count) triples — order-independent, so a live run
/// and a replay that booked deliveries in different orders still compare
/// equal iff the multisets do.
void finalize(const Counts& counts, const Expected& expected,
              ReplayReport& report) {
  std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> sorted;
  for (const auto& [uid, per_sub] : counts)
    for (const auto& [key, copies] : per_sub) sorted[{uid, key}] = copies;

  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  std::ostringstream err;
  for (const auto& [key, copies] : sorted) {
    report.deliveries += copies;
    mix(key.first);
    mix(key.second);
    mix(copies);
    const auto it = expected.find(key.first);
    const bool wanted =
        it != expected.end() &&
        std::find(it->second.begin(), it->second.end(), key.second) !=
            it->second.end();
    if (!wanted && report.exact) {
      report.exact = false;
      err << "false positive: event " << key.first
          << " reached subscription " << key.second;
      report.diff = err.str();
    } else if (wanted && copies != 1 && report.exact) {
      report.exact = false;
      err << "event " << key.first << " delivered " << copies
          << "x to subscription " << key.second;
      report.diff = err.str();
    }
  }
  report.fingerprint = hash;
  for (const auto& [uid, keys] : expected) {
    report.expected += keys.size();
    for (const std::size_t key : keys) {
      const auto it = counts.find(uid);
      if (it != counts.end() && it->second.count(key) != 0) continue;
      if (!report.exact) continue;
      report.exact = false;
      err << "missing delivery: event " << uid << " never reached subscription "
          << key;
      report.diff = err.str();
    }
  }
}

/// Adds one counting subscriber per filter; index in `filters` is the
/// subscription key booked into `counts`.
void subscribe_all(routing::Overlay& overlay,
                   const std::vector<filter::ConjunctiveFilter>& filters,
                   Counts& counts) {
  for (std::size_t key = 0; key < filters.size(); ++key) {
    routing::SubscriberNode& node = overlay.add_subscriber();
    node.subscribe(filters[key],
                   [&counts, key](const event::EventImage& image) {
                     const value::Value* uid = image.find("uid");
                     if (uid != nullptr) ++counts[uid->as_int()][key];
                   });
  }
}

}  // namespace

std::vector<filter::ConjunctiveFilter> draw_subscriptions(
    workload::BiblioGenerator& gen, util::Rng& rng, std::size_t count,
    const reflect::TypeRegistry& registry) {
  std::vector<filter::ConjunctiveFilter> filters;
  filters.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Mostly 1–2 wildcards so filters overlap and most events match someone;
    // the occasional fully-exact filter keeps the narrow path covered.
    const std::size_t wildcards = rng.below(4) == 0 ? 0 : 1 + rng.below(2);
    filter::ConjunctiveFilter exact = gen.next_subscription(wildcards);
    if (const reflect::TypeInfo* type = registry.find(exact.type().name.id))
      exact = exact.standard_form(*type);
    filters.push_back(std::move(exact));
  }
  return filters;
}

ReplayReport record_workload(const ReplayConfig& cfg, std::uint64_t seed,
                             journal::Journal& journal) {
  workload::ensure_types_registered();
  ReplayReport report;

  routing::Overlay overlay{overlay_config(cfg, seed)};
  const reflect::TypeRegistry& registry = overlay.registry();
  routing::PublisherNode& publisher = overlay.add_publisher();
  publisher.advertise(workload::BiblioGenerator::schema());
  publisher.set_record_journal(&journal);
  overlay.run();

  const std::uint64_t wseed = wseed_of(seed);
  workload::BiblioGenerator gen{cfg.biblio, wseed};
  util::Rng rng{wseed ^ 0x5B5ULL};
  const std::vector<filter::ConjunctiveFilter> filters =
      draw_subscriptions(gen, rng, cfg.subscribers, registry);

  Counts counts;
  Expected expected;
  subscribe_all(overlay, filters, counts);
  overlay.run();

  // Draw the whole event stream up front (generator order stays the pure
  // function of the seed), then publish spaced in virtual time so the
  // recorded `published_at` stamps are distinct and deterministic.
  std::vector<event::EventImage> images;
  images.reserve(cfg.events);
  for (std::size_t i = 0; i < cfg.events; ++i) {
    const std::uint64_t uid = i + 1;
    event::EventImage image = tag(gen.next_event(), uid);
    auto& keys = expected[uid];
    for (std::size_t key = 0; key < filters.size(); ++key)
      if (filters[key].matches(image, registry)) keys.push_back(key);
    images.push_back(std::move(image));
  }
  sim::Scheduler& sch = overlay.scheduler();
  const sim::Time t0 = sch.now();
  for (std::size_t i = 0; i < images.size(); ++i) {
    sch.schedule_at(t0 + (i + 1) * cfg.event_spacing,
                    [&publisher, image = std::move(images[i])] {
                      publisher.publish(image);
                    });
  }
  overlay.run();
  journal.sync();

  report.events_in = cfg.events;
  report.distinct_events = cfg.events;
  finalize(counts, expected, report);
  return report;
}

ReplayReport replay_workload(const ReplayConfig& cfg, std::uint64_t seed,
                             journal::Journal& journal) {
  workload::ensure_types_registered();
  ReplayReport report;

  routing::Overlay overlay{overlay_config(cfg, seed)};
  const reflect::TypeRegistry& registry = overlay.registry();
  // The publisher exists only to advertise the schema and donate its node
  // id as the injection source — ids then line up with the recording run.
  routing::PublisherNode& publisher = overlay.add_publisher();
  publisher.advertise(workload::BiblioGenerator::schema());
  overlay.run();

  const std::uint64_t wseed = wseed_of(seed);
  workload::BiblioGenerator gen{cfg.biblio, wseed};
  util::Rng rng{wseed ^ 0x5B5ULL};
  const std::vector<filter::ConjunctiveFilter> filters =
      draw_subscriptions(gen, rng, cfg.subscribers, registry);

  Counts counts;
  Expected expected;
  subscribe_all(overlay, filters, counts);
  overlay.run();

  // Walk the journal once: collect the raw frames to inject and compute the
  // reference prediction from their decoded images. Duplicate records (a
  // broker journal written under Duplicate faults holds every inbound copy)
  // are injected as-is — the subscriber dedup absorbs them — but counted
  // once on the expected side.
  std::vector<std::vector<std::byte>> frames;
  std::unordered_set<std::uint64_t> seen_ids;
  std::ostringstream err;
  journal.scan(journal.first_offset(), [&](const journal::Record& rec) {
    if (rec.kind != journal::RecordKind::Event) return;
    ++report.events_in;
    frames.push_back(rec.payload);
    routing::Packet packet;
    try {
      packet = routing::decode(rec.payload);
    } catch (const wire::WireError&) {
      if (report.exact) {
        report.exact = false;
        err << "journal record at offset " << rec.offset
            << " is not a decodable frame";
        report.diff = err.str();
      }
      return;
    }
    const auto* ev = std::get_if<routing::EventMsg>(&packet);
    if (ev == nullptr) return;  // control frames replay but predict nothing
    if (!seen_ids.insert(ev->event_id).second) return;
    ++report.distinct_events;
    const value::Value* uid = ev->image.find("uid");
    if (uid == nullptr) {
      if (report.exact) {
        report.exact = false;
        err << "event " << ev->event_id
            << " carries no uid tag; journal was not recorded by this oracle";
        report.diff = err.str();
      }
      return;
    }
    auto& keys = expected[static_cast<std::uint64_t>(uid->as_int())];
    for (std::size_t key = 0; key < filters.size(); ++key)
      if (filters[key].matches(ev->image, registry)) keys.push_back(key);
  });

  sim::Scheduler& sch = overlay.scheduler();
  sim::Network& net = overlay.network();
  const sim::NodeId src = publisher.id();
  const sim::NodeId root = overlay.root().id();
  const sim::Time t0 = sch.now();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    sch.schedule_at(t0 + (i + 1) * cfg.event_spacing,
                    [&net, src, root, frame = std::move(frames[i])] {
                      net.send(src, root, sim::Network::Payload{frame});
                    });
  }
  overlay.run();

  finalize(counts, expected, report);
  return report;
}

}  // namespace cake::core
