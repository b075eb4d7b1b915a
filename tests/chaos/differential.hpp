// Model-differential chaos harness.
//
// One *trial* builds a small overlay, subscribes a mixed workload, then
// lets a deterministic `sim::FaultPlan` loose on it: per-link and
// per-packet-type drops, partitions, duplication, latency jitter and
// broker crash–restart. A centralized reference matcher — the exact
// filters applied directly to every published image — computes the
// expected delivery multiset, and after every fault has healed and the
// soft-state machinery has had ≥ 3×TTL to converge the trial asserts:
//
//   (a) completeness: probe events published after convergence reach every
//       matching subscriber exactly once (no false negatives, no stale
//       duplicate leases);
//   (b) at most once: no event reaches a subscription twice, in any phase
//       and any mode (the subscribers' event-id dedup collapses every
//       second path a fault opens);
//   (c) broker tables are reaped back to the fault-free fixpoint — every
//       lease corresponds to a live subscription or a child broker's
//       active upward form, and vice versa;
//   (d) the network's conservation law holds:
//       total + duplicated == delivered + dropped + undeliverable.
//
// Failing seeds shrink greedily (drop one fault op at a time while the
// trial still fails) and print a one-line replay command.
//
// `FaultPlan` times are *relative to the chaos-arm instant* (after setup
// and warm-up), so the same (config, plan) pair replays bit-for-bit no
// matter how long the deterministic setup takes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cake/health/health.hpp"
#include "cake/journal/journal.hpp"
#include "cake/link/link.hpp"
#include "cake/metrics/metrics.hpp"
#include "cake/sim/chaos.hpp"
#include "cake/workload/generators.hpp"

namespace cake::chaos {

struct HarnessConfig {
  std::vector<std::size_t> stage_counts{1, 2, 4};
  sim::Time ttl = 1'000'000;
  sim::Time renew_interval = 400'000;
  sim::Time reap_interval = 500'000;
  sim::Time link_latency = 1'000;

  std::size_t subscribers = 10;
  std::size_t warm_events = 25;    ///< published before faults arm
  std::size_t chaos_events = 120;  ///< spread across the fault horizon
  std::size_t probe_events = 40;   ///< published after convergence

  /// Fault-schedule shape (plan_for fills in node ids and packet types).
  sim::Time horizon = 8'000'000;
  std::size_t fault_ops = 6;

  /// Signed µs adjustment to the convergence window (default window:
  /// heal + 3×TTL + 2×reap + 6×renew). The curve experiment bisects this
  /// downward to measure how much convergence time a fault rate really
  /// needs; never shrinks the window below the heal instant.
  std::int64_t extra_convergence_slack = 0;

  /// Satellite knob: disable the subscriber's Expired→rejoin path, the
  /// known completeness bug the oracle must catch (acceptance criterion).
  bool inject_rejoin_bug = false;

  /// Broker-side subscription aggregation (DESIGN.md §13): every broker
  /// merges covered/joinable filters under LUB representatives. The
  /// delivery multiset the oracle asserts must be *unchanged* — merging
  /// may only add spurious broker forwards, never lose or duplicate a
  /// delivery — and after every trial each broker's merge structure must
  /// still pass its structural fixpoint check under the churn the faults
  /// induced (lease expiry, crash–restart table rebuilds, re-joins).
  bool aggregate = false;

  /// Link layer for every node in the trial overlay. `Reliable` turns on
  /// sequencing, retransmission, heartbeat failure detection and
  /// self-healing re-parenting — and *arms the strict oracle*: for plans
  /// whose faults are all message-level (Drop/Duplicate/Jitter), even
  /// events published inside the fault window must reach every matching
  /// subscriber exactly once. Message loss is no longer an excuse.
  link::Reliability reliability = link::Reliability::BestEffort;

  /// Leave crashed brokers down instead of cold-restarting them at the
  /// plan's restart instant. Recovery must then come entirely from the
  /// self-healing path: children heartbeat-detect the dead parent, climb
  /// to an ancestor and replay their filter tables; subscribers of a dead
  /// edge broker re-join through the root. Only meaningful with Reliable
  /// (best-effort nodes never detect the death).
  bool leave_crashed = false;

  /// Durable brokers (routing::Durability::Journal): every broker journals
  /// inbound event frames to a crash-surviving store and replays it on
  /// restart, so a crash loses nothing that had reached the broker — the
  /// pen-loss window soft-state recovery alone cannot close. Pairs with
  /// Reliable links, and *extends the strict oracle to crashes*: for plans
  /// whose faults are all in {Drop, Duplicate, Jitter, Crash} (no
  /// partitions, restarts enabled), even events published while a broker
  /// was down must reach every matching subscriber exactly once.
  bool durability = false;

  /// Satellite knob: disable journal replay on restart — the known
  /// zero-loss bug the durable oracle must catch. With the replay gone, an
  /// event parked in a crashed broker's grace pen (or detached-child
  /// cursor range) vanishes with the process, and the strict in-window
  /// exactly-once check fails on it.
  bool inject_replay_bug = false;

  /// Recorder tap (tools/cake_replay): when set, every frame the trial's
  /// publisher sends is also appended here, capturing the exact workload
  /// for offline replay. The journal must outlive the trial.
  journal::Journal* record_journal = nullptr;

  /// Rides the per-event trace pipeline (trace/) along the whole trial,
  /// sampling every event into rings sized for the workload. The trial
  /// then also asserts trace-id conservation — every span belongs to a
  /// journey rooted at a publish span, even after drops, duplication and
  /// crash–restarts (a dropped EventMsg must silence all downstream spans,
  /// never strand some) — that journeys equal events published (the trace
  /// analogue of the network's byte-conservation law), and that
  /// probe-phase journeys pass the trace oracle end to end.
  bool trace_pipeline = false;

  /// Overload mode (DESIGN.md §15): the plan stalls subscriber consumers
  /// (FaultKind::Stall) while a publish storm — `chaos_events ×
  /// storm_multiplier` — runs against the reliable stack with credit flow
  /// control and broker slow-child quarantine armed. The oracle swaps the
  /// fault-masking checks for the graceful-degradation set:
  ///
  ///   * zero lease expiries and zero rejoins — a stalled consumer's
  ///     protocol stack keeps renewing, so the storm never costs a lease;
  ///   * healthy subscribers ride through untouched: exactly-once on the
  ///     reference multiset (precisely the no-storm control's outcome);
  ///   * the conservation identity holds *exactly* per subscriber, in
  ///     arrival terms: events matching the stored (stage-weakened) lease
  ///     filter == frames received + quarantine-pen evictions charged to
  ///     that child + stall-inbox evictions (pens empty at quiescence);
  ///   * bounded state throughout the storm: per-child link queues never
  ///     observed past `child_queue.capacity`, pens never past
  ///     `quarantine_pen_limit`.
  bool overload = false;
  std::size_t storm_multiplier = 10;
  /// Per-child queue watermarks the slow-child detector runs on —
  /// deliberately tiny so storms trip quarantine well inside the horizon.
  health::Watermarks child_queue{.low = 8, .high = 24, .capacity = 48};
  sim::Time quarantine_after = 400'000;    ///< sustained-above-high fuse
  std::size_t quarantine_pen_limit = 256;  ///< frames parked per child
  std::size_t stall_inbox_limit = 256;     ///< frames parked at a stalled sub

  /// Dense workload so filters overlap and most events match someone.
  workload::BiblioConfig biblio{.years = 3, .conferences = 3, .authors = 6};
  std::uint64_t workload_seed = 0;  ///< 0 = derive from the plan seed
};

struct TrialResult {
  bool ok = true;
  std::string failure;  ///< first violated assertion; empty when ok
  sim::ChaosStats chaos;
  sim::Time converged_at = 0;  ///< virtual instant the probe phase started
  std::uint64_t expected_deliveries = 0;  ///< reference-model count (probes)
  std::uint64_t duplicate_peak = 0;  ///< max copies of one (event, sub) pair
  std::uint64_t traced_journeys = 0;  ///< with trace_pipeline: journeys seen
  std::uint64_t traced_spans = 0;     ///< with trace_pipeline: spans retained
  link::LinkCounters link;     ///< overlay-wide link-layer counters
  std::uint64_t reparents = 0; ///< parent-death re-attachments performed
  /// Grace-pen overflow evictions across all brokers: each one is a real
  /// event loss during a heal (the pen was undersized for the workload),
  /// distinct from a heal-race the pen closed.
  std::uint64_t pen_dropped = 0;

  /// Overload mode: the conservation ledger snapshot at quiescence plus the
  /// degradation counters the oracle gates on (all zero otherwise).
  metrics::ShedLedger ledger;
  std::uint64_t expired_notices = 0;   ///< broker→child Expired sends
  std::uint64_t rejoins = 0;           ///< subscriber re-joins after Expired
  std::uint64_t quarantines = 0;       ///< slow-child pens opened
  std::uint64_t events_stalled = 0;    ///< frames parked at stalled consumers
  std::uint64_t peak_pen = 0;          ///< max frames penned at once (sampled)
  std::uint64_t peak_child_queue = 0;  ///< max per-subscriber link queue depth
};

/// Seed-derived random schedule shaped for `cfg`'s topology: drops target
/// real links and protocol packet classes, partitions cut broker/endpoint
/// id ranges, and ≥ 1 broker crash–restart is always present.
[[nodiscard]] sim::FaultPlan plan_for(std::uint64_t seed,
                                      const HarnessConfig& cfg);

/// Like `plan_for` but restricted to message-level faults — Drop, Duplicate
/// and Jitter, no crashes or partitions. This is the schedule shape the
/// reliable exactly-once sweep runs under: every fault in it is one the
/// link layer claims to mask completely.
[[nodiscard]] sim::FaultPlan message_plan_for(std::uint64_t seed,
                                              const HarnessConfig& cfg);

/// Overload schedule: one Stall op pinning a random subscriber's consumer
/// for most of the horizon — no message faults, no crashes. Paired with
/// `cfg.overload = true`, which supplies the storm itself (the publish rate
/// is workload, not fault, so it lives in the config, not the plan).
[[nodiscard]] sim::FaultPlan overload_plan_for(std::uint64_t seed,
                                               const HarnessConfig& cfg);

/// `message_plan_for` plus 1–2 staggered broker crash–restarts: the
/// schedule shape the durable exactly-once sweep runs under. Every fault in
/// it is one the journal + reliable-link pair claims to mask completely —
/// crashes included, which is the whole point of the durability tier.
[[nodiscard]] sim::FaultPlan durable_plan_for(std::uint64_t seed,
                                              const HarnessConfig& cfg);

/// Runs one differential trial of `plan` (times relative to arm instant).
[[nodiscard]] TrialResult run_trial(const HarnessConfig& cfg,
                                    const sim::FaultPlan& plan);

/// Greedily removes fault ops while the trial keeps failing; returns the
/// minimal still-failing plan (== `plan` when nothing can be removed).
[[nodiscard]] sim::FaultPlan shrink_plan(const HarnessConfig& cfg,
                                         sim::FaultPlan plan);

/// One-line command reproducing a failure, e.g.
/// `cake_chaos --trace 'seed=7;C,1000,2000,3,0,0,0,0'`.
[[nodiscard]] std::string replay_command(const sim::FaultPlan& plan);

}  // namespace cake::chaos
