#include "differential.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cake/core/replay.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/trace/oracle.hpp"
#include "cake/util/rng.hpp"
#include "cake/workload/types.hpp"

namespace cake::chaos {
namespace {

enum class Phase : std::uint8_t { Warm, Chaos, Probe };

/// One reference subscription: a pointer to the live node plus the
/// standard-form exact filter the oracle matches against directly.
struct SubRec {
  routing::SubscriberNode* node = nullptr;
  filter::ConjunctiveFilter exact;
};

struct Bookkeeping {
  // uid → subscription index → handler fire count.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::size_t, std::uint64_t>>
      counts;
  // uid → subscription indices the reference matcher expects.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> expected;
  std::unordered_map<std::uint64_t, Phase> phase_of;
  // uid → the routing-layer event id (== trace id when tracing rides along).
  std::unordered_map<std::uint64_t, std::uint64_t> trace_of;
  std::uint64_t next_uid = 1;
};

/// Copies `image` with a unique `uid` attribute appended, so the oracle can
/// identify every published event at the handler without trusting any
/// routing-layer id. Filters never constrain `uid`; matching is unaffected.
event::EventImage tag(const event::EventImage& image, std::uint64_t uid) {
  std::vector<event::ImageAttribute> attrs = image.attributes();
  attrs.push_back({"uid", value::Value{static_cast<std::int64_t>(uid)}});
  return event::EventImage{image.type_name(), std::move(attrs),
                           image.opaque()};
}

/// Structural "tables reaped to the fault-free fixpoint" check, both
/// directions: every lease in every broker is backed by a live subscription
/// or a child broker's active upward form, and every live subscription /
/// active form has its lease. Returns the first violation, empty when clean.
std::string check_fixpoint(routing::Overlay& overlay) {
  std::ostringstream err;

  // Leases → live state (no stale entries survived convergence). A broker
  // left crashed (self-healing runs, no restart) is dead weight: its own
  // table is frozen pre-crash state nobody routes through, so it is
  // skipped — but any *live* broker still holding a lease for it has
  // failed to reap, and that is a violation.
  for (const auto& broker : overlay.brokers()) {
    if (broker->crashed()) continue;
    for (const auto& [filter, children] : broker->table()) {
      for (const sim::NodeId child : children) {
        if (routing::Broker* cb = overlay.find_broker(child)) {
          if (cb->crashed()) {
            err << "broker " << broker->id()
                << " holds stale lease for crashed broker " << child << ": "
                << filter.to_string();
            return err.str();
          }
          const auto up = cb->active_upward();
          if (std::find(up.begin(), up.end(), filter) == up.end()) {
            err << "broker " << broker->id() << " holds stale lease for child broker "
                << child << ": " << filter.to_string();
            return err.str();
          }
          continue;
        }
        bool live = false;
        for (const auto& sub : overlay.subscribers()) {
          if (sub->id() != child) continue;
          for (const auto& view : sub->subscription_views())
            live |= view.parent == broker->id() && view.stored == filter;
        }
        if (!live) {
          err << "broker " << broker->id() << " holds stale lease for subscriber "
              << child << ": " << filter.to_string();
          return err.str();
        }
      }
    }
  }

  // Live state → leases (nothing needed was reaped and left dangling).
  const auto lease_exists = [&](sim::NodeId at, const filter::ConjunctiveFilter& f,
                                sim::NodeId child) {
    routing::Broker* broker = overlay.find_broker(at);
    // A lease at a crashed broker serves nobody; treat it as absent so the
    // caller reports the dangling live state.
    if (broker == nullptr || broker->crashed()) return false;
    for (const auto& [filter, children] : broker->table())
      if (filter == f &&
          std::find(children.begin(), children.end(), child) != children.end())
        return true;
    return false;
  };
  for (const auto& sub : overlay.subscribers()) {
    for (const auto& view : sub->subscription_views()) {
      if (!view.parent.has_value()) {
        err << "subscriber " << sub->id() << " token " << view.token
            << " has no accepted home after convergence";
        return err.str();
      }
      if (!lease_exists(*view.parent, view.stored, sub->id())) {
        err << "subscriber " << sub->id() << "'s lease at broker "
            << *view.parent << " missing: " << view.stored.to_string();
        return err.str();
      }
    }
  }
  for (const auto& broker : overlay.brokers()) {
    if (broker->is_root() || broker->crashed()) continue;
    for (const auto& form : broker->active_upward()) {
      if (!lease_exists(broker->parent(), form, broker->id())) {
        err << "broker " << broker->id() << "'s upward form missing at parent "
            << broker->parent() << ": " << form.to_string();
        return err.str();
      }
    }
  }
  return {};
}

}  // namespace

sim::FaultPlan plan_for(std::uint64_t seed, const HarnessConfig& cfg) {
  std::size_t brokers = 0;
  for (const std::size_t n : cfg.stage_counts) brokers += n;

  sim::RandomPlanSpec spec;
  spec.horizon = cfg.horizon;
  spec.ops = cfg.fault_ops;
  // Node ids are assigned brokers-first, then one publisher, then the
  // subscribers — the full range participates in link/partition rules.
  spec.max_node = static_cast<sim::NodeId>(brokers + cfg.subscribers);
  spec.crashable.resize(brokers);
  for (std::size_t i = 0; i < brokers; ++i)
    spec.crashable[i] = static_cast<sim::NodeId>(i);
  spec.min_crashes = 1;
  spec.max_jitter = 50 * cfg.link_latency;
  // Wire tags of the classes whose loss stresses distinct recovery paths:
  // Subscribe (1), ReqInsert (4), Renew (5), EventMsg (7).
  spec.droppable_types = {1, 4, 5, 7};
  return sim::random_plan(seed, spec);
}

TrialResult run_trial(const HarnessConfig& cfg, const sim::FaultPlan& plan) {
  workload::ensure_types_registered();
  TrialResult result;
  const auto fail = [&result](std::string why) {
    result.ok = false;
    result.failure = std::move(why);
    return result;
  };

  // Overload rides the reliable stack unconditionally: credit is what turns
  // a stalled consumer into sender-side backlog the broker can see, and the
  // accounting oracle needs loss confined to the counted pens.
  const link::Reliability reliability = cfg.overload
                                            ? link::Reliability::Reliable
                                            : cfg.reliability;
  const std::size_t chaos_events =
      cfg.overload ? cfg.chaos_events * cfg.storm_multiplier : cfg.chaos_events;

  routing::OverlayConfig oc;
  oc.stage_counts = cfg.stage_counts;
  oc.broker.ttl = cfg.ttl;
  oc.broker.renew_interval = cfg.renew_interval;
  oc.broker.reap_interval = cfg.reap_interval;
  oc.subscriber.renew_interval = cfg.renew_interval;
  oc.subscriber.rejoin_on_expired = !cfg.inject_rejoin_bug;
  oc.broker.aggregate.enabled = cfg.aggregate;
  oc.link_latency = cfg.link_latency;
  oc.seed = plan.seed ^ 0x0E11A5ULL;
  oc.link.reliability = reliability;
  if (reliability == link::Reliability::Reliable) {
    // The oracle asserts delivery, so shedding must never be the reason an
    // event went missing: give every sender queue headroom for the whole
    // workload. (Shed-policy behaviour has its own targeted unit tests.)
    oc.link.queue_limit = 1u << 20;
    // Close the heal-time race between retransmitted events and the lease
    // renewals that route them: a zero-match event waits out a few renew
    // cycles in the grace pen before the broker gives up on it.
    oc.broker.match_grace = 3 * cfg.renew_interval;
  }
  if (cfg.overload) {
    oc.link.credit = true;
    oc.broker.quarantine = true;
    oc.broker.child_queue = cfg.child_queue;
    oc.broker.quarantine_after = cfg.quarantine_after;
    oc.broker.quarantine_pen_limit = cfg.quarantine_pen_limit;
    oc.subscriber.stall_inbox_limit = cfg.stall_inbox_limit;
  }
  if (cfg.durability) {
    // Durable brokers journal every inbound event frame and replay the log
    // on restart; the satellite bug knob severs exactly that replay.
    oc.durability = routing::Durability::Journal;
    oc.broker.journal_replay_on_restart = !cfg.inject_replay_bug;
  }
  if (cfg.trace_pipeline) {
    oc.trace.enabled = true;
    oc.trace.sample_period = 1;
    // Per-node headroom: every event can cross a node several times under
    // duplication; overflow is a harness sizing bug and fails the trial.
    oc.trace.ring_capacity =
        (cfg.warm_events + chaos_events + cfg.probe_events) * 64;
  }
  routing::Overlay overlay{oc};
  const reflect::TypeRegistry& registry = overlay.registry();
  sim::Scheduler& sch = overlay.scheduler();
  sim::Network& net = overlay.network();

  routing::PublisherNode& publisher = overlay.add_publisher();
  publisher.advertise(workload::BiblioGenerator::schema());
  if (cfg.record_journal != nullptr)
    publisher.set_record_journal(cfg.record_journal);
  overlay.run();

  // --- workload ------------------------------------------------------------
  const std::uint64_t wseed =
      cfg.workload_seed != 0 ? cfg.workload_seed : plan.seed ^ 0xB1B10ULL;
  workload::BiblioGenerator gen{cfg.biblio, wseed};
  util::Rng rng{wseed ^ 0x5B5ULL};

  Bookkeeping book;
  std::vector<SubRec> subs;
  subs.reserve(cfg.subscribers);
  // The subscription recipe is shared with core::replay — that is what lets
  // `cake_replay --seed <plan seed>` rebuild this exact subscription set
  // from a recorded journal. `gen` keeps drawing the event stream below.
  const std::vector<filter::ConjunctiveFilter> filters =
      core::draw_subscriptions(gen, rng, cfg.subscribers, registry);
  for (const filter::ConjunctiveFilter& exact : filters) {
    routing::SubscriberNode& node = overlay.add_subscriber();
    const std::size_t key = subs.size();
    node.subscribe(exact, [&book, key](const event::EventImage& image) {
      const value::Value* uid = image.find("uid");
      if (uid != nullptr) ++book.counts[uid->as_int()][key];
    });
    subs.push_back({&node, exact});
  }
  overlay.run();
  for (const SubRec& sub : subs) {
    if (sub.node->subscription_views().front().parent.has_value()) continue;
    return fail("setup: a subscription never completed its join");
  }

  // Overload conservation runs in *arrival* terms: what the hosting broker
  // fans out to a subscriber is whatever matches the stored (stage-weakened)
  // lease filter, spurious forwards included — so the reference side of the
  // identity must match against the stored form, not the exact one. Captured
  // once after setup; overload plans have no churn to move a lease.
  std::vector<filter::ConjunctiveFilter> stored_forms;
  std::vector<std::uint64_t> expected_arrivals(subs.size(), 0);
  if (cfg.overload) {
    stored_forms.reserve(subs.size());
    for (const SubRec& sub : subs)
      stored_forms.push_back(sub.node->subscription_views().front().stored);
  }

  const auto publish_one = [&](Phase phase) {
    const std::uint64_t uid = book.next_uid++;
    const event::EventImage image = gen.next_event();
    auto& expect = book.expected[uid];
    for (std::size_t key = 0; key < subs.size(); ++key)
      if (subs[key].exact.matches(image, registry)) expect.push_back(key);
    if (cfg.overload)
      for (std::size_t key = 0; key < subs.size(); ++key)
        if (stored_forms[key].matches(image, registry)) ++expected_arrivals[key];
    book.phase_of[uid] = phase;
    book.trace_of[uid] = publisher.publish(tag(image, uid));
  };

  // --- warm-up: the fault-free baseline must already be exactly-once ------
  for (std::size_t i = 0; i < cfg.warm_events; ++i) publish_one(Phase::Warm);
  overlay.run();

  // --- chaos ---------------------------------------------------------------
  // Plan times are relative to the arm instant; shift them to absolute
  // virtual time so replays are invariant to setup duration.
  const sim::Time t0 = sch.now();
  sim::FaultPlan shifted = plan;
  for (sim::FaultOp& op : shifted.ops) {
    op.at += t0;
    op.until += t0;
  }
  sim::Chaos chaos{sch, net, shifted};
  // With leave_crashed the restart instant is a no-op: the overlay must
  // heal around the corpse (re-parenting + re-joins), not wait for it.
  chaos.set_crash_hooks([&overlay](sim::NodeId n) { overlay.crash(n); },
                        cfg.leave_crashed
                            ? sim::Chaos::CrashHook{[](sim::NodeId) {}}
                            : sim::Chaos::CrashHook{[&overlay](sim::NodeId n) {
                                overlay.restart(n);
                              }});
  chaos.set_classifier([](const sim::Network::Payload& payload) {
    return routing::packet_class(payload);
  });
  chaos.set_stall_hooks(
      [&overlay](sim::NodeId n) {
        for (const auto& sub : overlay.subscribers())
          if (sub->id() == n) sub->stall();
      },
      [&overlay](sim::NodeId n) {
        for (const auto& sub : overlay.subscribers())
          if (sub->id() == n) sub->unstall();
      });
  chaos.arm();

  for (std::size_t i = 0; i < chaos_events; ++i) {
    const sim::Time at = t0 + (i + 1) * cfg.horizon / (chaos_events + 1);
    sch.schedule_at(at, [&publish_one] { publish_one(Phase::Chaos); });
  }

  // Overload mode: sample per-child broker state across the storm — the
  // memory-bound oracle gates on the peaks, not just the quiescent end
  // state (a pen that ballooned and drained would otherwise pass).
  if (cfg.overload) {
    for (std::size_t i = 1; i <= 128; ++i) {
      sch.schedule_at(t0 + i * cfg.horizon / 128, [&overlay, &result] {
        for (const auto& broker : overlay.brokers()) {
          result.peak_pen = std::max<std::uint64_t>(
              result.peak_pen, broker->quarantine_pen_size());
          for (const auto& sub : overlay.subscribers())
            result.peak_child_queue = std::max<std::uint64_t>(
                result.peak_child_queue,
                broker->link().queued_events(sub->id()));
        }
      });
    }
  }

  const sim::Time heal = t0 + std::max(plan.heal_time(), cfg.horizon);
  sch.run_until(heal);
  chaos.disarm();
  result.chaos = chaos.stats();

  // --- convergence: 3×TTL for stale leases, plus reap and renew slack -----
  const auto window = static_cast<std::int64_t>(3 * cfg.ttl +
                                                2 * cfg.reap_interval +
                                                6 * cfg.renew_interval) +
                      cfg.extra_convergence_slack;
  sch.run_until(heal + static_cast<sim::Time>(std::max<std::int64_t>(window, 0)));
  overlay.run();
  result.converged_at = sch.now();

  // (b) at most once, in every mode and every phase: the subscribers'
  // event-id dedup collapses every dual path a fault can open.
  for (const auto& [uid, per_sub] : book.counts) {
    for (const auto& [key, copies] : per_sub) {
      const auto& expect = book.expected.at(uid);
      if (std::find(expect.begin(), expect.end(), key) == expect.end()) {
        std::ostringstream err;
        err << "false positive: event " << uid << " reached subscription "
            << key << " which does not match it";
        return fail(err.str());
      }
      result.duplicate_peak = std::max(result.duplicate_peak, copies);
      if (copies > 1) {
        std::ostringstream err;
        err << "duplicate: event " << uid << " delivered " << copies
            << "x to subscription " << key;
        return fail(err.str());
      }
    }
  }
  // Warm events predate every fault: completeness is unconditional for them.
  for (const auto& [uid, expect] : book.expected) {
    if (book.phase_of.at(uid) != Phase::Warm) continue;
    for (const std::size_t key : expect) {
      if (book.counts[uid][key] != 1) {
        std::ostringstream err;
        err << "warm-up event " << uid << " delivered "
            << book.counts[uid][key] << "x to subscription " << key;
        return fail(err.str());
      }
    }
  }

  // (b') strict oracle: with reliable links and only message-level faults
  // (drops, duplication, jitter — everything the link layer claims to
  // mask), the fault window is no excuse. Every event, *including those
  // published while faults were live*, must reach every matching
  // subscriber exactly once: retransmission closes the losses, sequencing
  // plus subscriber dedup closes the duplicates.
  const bool message_faults_only = std::all_of(
      plan.ops.begin(), plan.ops.end(), [](const sim::FaultOp& op) {
        return op.kind == sim::FaultKind::Drop ||
               op.kind == sim::FaultKind::Duplicate ||
               op.kind == sim::FaultKind::Jitter;
      });
  // With durable journaled brokers the claim widens to crashes: a restarted
  // broker replays its log, so not even a crash window excuses a loss.
  // (Partitions stay excluded — a partitioned best-effort publisher edge
  // can genuinely prevent an event from ever reaching a broker.)
  const bool durable_recoverable =
      cfg.durability && !cfg.leave_crashed &&
      std::all_of(plan.ops.begin(), plan.ops.end(), [](const sim::FaultOp& op) {
        return op.kind == sim::FaultKind::Drop ||
               op.kind == sim::FaultKind::Duplicate ||
               op.kind == sim::FaultKind::Jitter ||
               op.kind == sim::FaultKind::Crash;
      });
  if (cfg.reliability == link::Reliability::Reliable &&
      (message_faults_only || durable_recoverable)) {
    for (const auto& [uid, expect] : book.expected) {
      for (const std::size_t key : expect) {
        const std::uint64_t copies = book.counts[uid][key];
        if (copies == 1) continue;
        std::ostringstream err;
        err << (message_faults_only ? "reliable" : "durable")
            << " exactly-once violated: "
            << (book.phase_of.at(uid) == Phase::Chaos ? "in-window" : "warm-up")
            << " event " << uid << " delivered " << copies
            << "x to subscription " << key;
        return fail(err.str());
      }
    }
  }

  // (c) broker tables back to the fault-free fixpoint.
  if (std::string err = check_fixpoint(overlay); !err.empty())
    return fail("fixpoint: " + err);

  // (c') with aggregation on, the merge structures must also be internally
  // consistent — reverse map, canonical folds, buckets and inner engine in
  // exact agreement after all the churn the schedule caused.
  if (cfg.aggregate) {
    for (const auto& broker : overlay.brokers()) {
      if (broker->aggregated() == nullptr)
        return fail("aggregate: broker lost its aggregated index");
      if (std::string err = broker->aggregated()->check_invariants();
          !err.empty())
        return fail("aggregate fixpoint (broker " +
                    std::to_string(broker->id()) + "): " + err);
    }
  }

  // (a) probe events after convergence: exactly once, no false negatives.
  const std::uint64_t first_probe = book.next_uid;
  for (std::size_t i = 0; i < cfg.probe_events; ++i) publish_one(Phase::Probe);
  overlay.run();
  for (std::uint64_t uid = first_probe; uid < book.next_uid; ++uid) {
    for (const std::size_t key : book.expected.at(uid)) {
      ++result.expected_deliveries;
      const std::uint64_t copies = book.counts[uid][key];
      if (copies == 1) continue;
      std::ostringstream err;
      err << (copies == 0 ? "false negative" : "duplicate")
          << " after convergence: probe event " << uid << " delivered "
          << copies << "x to subscription " << key << " (subscriber "
          << subs[key].node->id() << ")";
      return fail(err.str());
    }
  }

  // (f–i) overload oracle: graceful degradation, not fault masking.
  if (cfg.overload) {
    for (const auto& broker : overlay.brokers()) {
      const routing::BrokerStats bs = broker->stats();
      result.expired_notices += bs.expired_notices;
      result.quarantines += bs.children_quarantined;
      if (broker->quarantine_pen_size() != 0)
        return fail("overload: quarantine pen not drained at quiescence");
    }
    for (const auto& sub : overlay.subscribers()) {
      result.rejoins += sub->stats().rejoins;
      result.events_stalled += sub->stats().events_stalled;
      if (sub->stalled())
        return fail("overload: subscriber still stalled at quiescence");
    }
    if (result.chaos.stalls == 0 || result.chaos.unstalls == 0)
      return fail("overload: plan carried no stall window");

    // (f) the storm never costs a lease: a stalled consumer's protocol
    // stack keeps renewing, so no broker ever reaps it.
    if (result.expired_notices != 0) {
      std::ostringstream err;
      err << "overload: " << result.expired_notices
          << " lease expiries under the storm (renewals starved)";
      return fail(err.str());
    }
    if (result.rejoins != 0) {
      std::ostringstream err;
      err << "overload: " << result.rejoins << " forced rejoins under the storm";
      return fail(err.str());
    }

    // (g) healthy subscribers ride through untouched: exactly-once on the
    // reference multiset — which *is* the no-storm control's outcome, since
    // the workload and subscription draw are deterministic in the seed.
    std::unordered_set<std::size_t> stalled_keys;
    for (const sim::FaultOp& op : plan.ops) {
      if (op.kind != sim::FaultKind::Stall) continue;
      for (std::size_t key = 0; key < subs.size(); ++key)
        if (subs[key].node->id() == op.a) stalled_keys.insert(key);
    }
    if (stalled_keys.empty())
      return fail("overload: plan stalls no subscriber of this trial");
    for (const auto& [uid, expect] : book.expected) {
      for (const std::size_t key : expect) {
        const std::uint64_t copies = book.counts[uid][key];
        if (copies > 1) {
          std::ostringstream err;
          err << "overload: event " << uid << " delivered " << copies
              << "x to subscription " << key;
          return fail(err.str());
        }
        if (copies == 0 && !stalled_keys.contains(key)) {
          std::ostringstream err;
          err << "overload: healthy subscription " << key << " lost event "
              << uid << " to someone else's storm";
          return fail(err.str());
        }
      }
    }

    // (h) the conservation identity, exact, per subscriber and in arrival
    // terms: every event the stored lease filter admits either reached the
    // process or sits in exactly one shed counter charged to that child.
    for (std::size_t key = 0; key < subs.size(); ++key) {
      const routing::SubscriberNode& node = *subs[key].node;
      std::uint64_t shed = node.stats().stall_inbox_dropped;
      for (const auto& broker : overlay.brokers())
        shed += broker->quarantine_dropped(node.id());
      const std::uint64_t arrived = node.stats().events_received;
      if (expected_arrivals[key] != arrived + shed) {
        std::ostringstream err;
        err << "overload: conservation violated at subscription " << key
            << (stalled_keys.contains(key) ? " (stalled)" : " (healthy)")
            << ": expected " << expected_arrivals[key] << " arrivals, got "
            << arrived << " + " << shed << " shed";
        return fail(err.str());
      }
    }

    // (i) bounded state throughout the storm, not just at the end.
    if (result.peak_pen > cfg.quarantine_pen_limit) {
      std::ostringstream err;
      err << "overload: pen peaked at " << result.peak_pen << " frames, limit "
          << cfg.quarantine_pen_limit;
      return fail(err.str());
    }
    if (result.peak_child_queue > cfg.child_queue.capacity) {
      std::ostringstream err;
      err << "overload: child queue peaked at " << result.peak_child_queue
          << " frames, capacity " << cfg.child_queue.capacity;
      return fail(err.str());
    }

    result.ledger = metrics::shed_ledger(overlay);
  }

  result.link = overlay.link_counters();
  result.reparents = overlay.total_reparents();
  for (const auto& broker : overlay.brokers())
    result.pen_dropped += broker->stats().events_pen_dropped;

  // (d) network accounting: nothing created or lost outside the books.
  if (net.total_messages() + net.duplicated() !=
      net.delivered() + net.dropped() + net.undeliverable()) {
    std::ostringstream err;
    err << "network accounting violated: total=" << net.total_messages()
        << " +dup=" << net.duplicated() << " != delivered=" << net.delivered()
        << " +dropped=" << net.dropped()
        << " +undeliverable=" << net.undeliverable();
    return fail(err.str());
  }

  // (e) trace-id conservation: the trace analogue of (d). Every span must
  // belong to a journey rooted at a publish span — a dropped EventMsg
  // silences all downstream spans, it never strands some — and journeys
  // must equal events published. Probe journeys additionally pass the
  // trace oracle end to end.
  if (cfg.trace_pipeline) {
    const trace::Tracer& tracer = *overlay.tracer();
    trace::Collector collector;
    collector.add_all(tracer.spans());
    result.traced_spans = tracer.stats().spans_emitted;
    result.traced_journeys = collector.journeys().size();
    if (tracer.stats().spans_overwritten != 0) {
      std::ostringstream err;
      err << "trace ring overflow: " << tracer.stats().spans_overwritten
          << " spans overwritten (harness ring sizing bug)";
      return fail(err.str());
    }
    if (const std::uint64_t orphans = trace::orphan_spans(collector);
        orphans != 0) {
      std::ostringstream err;
      err << "trace conservation violated: " << orphans
          << " spans without a publish-rooted journey";
      return fail(err.str());
    }
    if (result.traced_journeys != book.next_uid - 1) {
      std::ostringstream err;
      err << "trace conservation violated: " << result.traced_journeys
          << " journeys for " << (book.next_uid - 1) << " published events";
      return fail(err.str());
    }

    if (cfg.probe_events > 0) {
      std::unordered_map<trace::TraceId, std::uint64_t> uid_of;
      std::vector<trace::TraceId> probe_ids;
      for (std::uint64_t uid = 1; uid < book.next_uid; ++uid) {
        const trace::TraceId id = book.trace_of.at(uid);
        uid_of.emplace(id, uid);
        if (uid >= first_probe) probe_ids.push_back(id);
      }
      std::vector<sim::NodeId> subscriber_nodes;
      std::unordered_map<sim::NodeId, std::size_t> key_of;
      for (std::size_t key = 0; key < subs.size(); ++key) {
        subscriber_nodes.push_back(subs[key].node->id());
        key_of.emplace(subs[key].node->id(), key);
      }
      const auto expected = [&](trace::TraceId id, sim::NodeId node) {
        const auto uid = uid_of.find(id);
        const auto key = key_of.find(node);
        if (uid == uid_of.end() || key == key_of.end()) return false;
        const auto& expect = book.expected.at(uid->second);
        return std::find(expect.begin(), expect.end(), key->second) !=
               expect.end();
      };
      trace::OracleOptions options;
      options.min_trace_id = book.trace_of.at(first_probe);
      const trace::OracleReport report = trace::verify_journeys(
          collector, probe_ids, subscriber_nodes, expected, options);
      if (!report.ok())
        return fail("trace oracle (probe phase): " + report.to_string());
    }
  }
  return result;
}

sim::FaultPlan message_plan_for(std::uint64_t seed, const HarnessConfig& cfg) {
  util::Rng rng{seed ^ 0x5E11AB1EULL};
  sim::FaultPlan plan;
  plan.seed = seed;
  const auto window = [&](sim::FaultOp& op) {
    op.at = rng.below(std::max<sim::Time>(1, cfg.horizon * 3 / 5));
    const sim::Time shortest = std::max<sim::Time>(1, cfg.horizon / 10);
    const sim::Time longest = std::max<sim::Time>(shortest + 1, cfg.horizon * 2 / 5);
    op.until = std::min<sim::Time>(cfg.horizon,
                                   op.at + shortest + rng.below(longest - shortest));
    if (op.until <= op.at) op.until = op.at + 1;
  };
  while (plan.ops.size() < std::max<std::size_t>(1, cfg.fault_ops)) {
    sim::FaultOp op;
    switch (rng.below(3)) {
      case 0:  // drop — harsh rates, sometimes event-targeted
        op.kind = sim::FaultKind::Drop;
        window(op);
        if (rng.chance(0.5)) op.type = 7;  // EventMsg, the cargo itself
        op.permille = 300 + static_cast<std::uint32_t>(rng.below(701));
        break;
      case 1:
        op.kind = sim::FaultKind::Duplicate;
        window(op);
        op.permille = 100 + static_cast<std::uint32_t>(rng.below(401));
        break;
      default:
        op.kind = sim::FaultKind::Jitter;
        window(op);
        op.permille = 200 + static_cast<std::uint32_t>(rng.below(601));
        op.jitter = 1 + rng.below(50 * cfg.link_latency);
        break;
    }
    plan.ops.push_back(op);
  }
  return plan;
}

sim::FaultPlan overload_plan_for(std::uint64_t seed, const HarnessConfig& cfg) {
  util::Rng rng{seed ^ 0x0E10ADULL};
  std::size_t brokers = 0;
  for (const std::size_t n : cfg.stage_counts) brokers += n;
  sim::FaultPlan plan;
  plan.seed = seed;
  sim::FaultOp op;
  op.kind = sim::FaultKind::Stall;
  // Ids are assigned brokers-first, then one publisher, then subscribers.
  op.a = static_cast<sim::NodeId>(brokers + 1 + rng.below(cfg.subscribers));
  // Stall early and unstall well before the heal instant: the drain (credit
  // resume, pen pacing) must finish inside the trial's own horizon, not
  // lean on the convergence window.
  op.at = cfg.horizon / 10;
  op.until = cfg.horizon * 7 / 10;
  plan.ops.push_back(op);
  return plan;
}

sim::FaultPlan durable_plan_for(std::uint64_t seed, const HarnessConfig& cfg) {
  sim::FaultPlan plan = message_plan_for(seed, cfg);
  // Layer 1–2 staggered broker crash–restarts on top of the message faults.
  // Downtimes are kept inside the horizon (the trial's heal instant covers
  // them) and crashes never overlap, so at most one broker is down at a
  // time — the regime the single-journal-per-broker recovery claims to
  // mask. Overlapping crashes of a parent+child pair are a different (and
  // currently unclaimed) guarantee.
  util::Rng rng{seed ^ 0xD0ABCEULL};
  std::size_t brokers = 0;
  for (const std::size_t n : cfg.stage_counts) brokers += n;
  const std::size_t crashes = 1 + rng.below(2);
  const sim::Time slot = cfg.horizon / (crashes + 1);
  for (std::size_t i = 0; i < crashes; ++i) {
    sim::FaultOp op;
    op.kind = sim::FaultKind::Crash;
    op.a = static_cast<sim::NodeId>(rng.below(brokers));
    op.at = slot * (i + 1) + rng.below(std::max<sim::Time>(1, slot / 4));
    op.until = op.at + std::max<sim::Time>(1, slot / 4) + rng.below(slot / 4 + 1);
    plan.ops.push_back(op);
  }
  return plan;
}

sim::FaultPlan shrink_plan(const HarnessConfig& cfg, sim::FaultPlan plan) {
  // Greedy one-op removal to a local minimum: O(ops²) trials, each cheap at
  // harness scale, and the result is 1-minimal (no single op is removable).
  bool shrunk = true;
  while (shrunk && plan.ops.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
      sim::FaultPlan candidate = plan;
      candidate.ops.erase(candidate.ops.begin() +
                          static_cast<std::ptrdiff_t>(i));
      if (!run_trial(cfg, candidate).ok) {
        plan = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return plan;
}

std::string replay_command(const sim::FaultPlan& plan) {
  return "cake_chaos --trace '" + plan.encode() + "'";
}

}  // namespace cake::chaos
