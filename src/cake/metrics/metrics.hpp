// Evaluation metrics of §5.1: Load Complexity (LC), Relative Load
// Complexity (RLC) and Matching Rate (MR), collected per node and
// aggregated per stage exactly as the paper's table and Figure 7 report
// them.
//
//   LC  = events_received × filters            (per node)
//   RLC = LC / (total_events × total_subs)     (normalized vs. the
//                                               centralized server, whose
//                                               RLC is 1 by definition)
//   MR  = matched_events / received_events     (per node)
#pragma once

#include <vector>

#include "cake/index/aggregate.hpp"
#include "cake/index/sharded.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/trace/collector.hpp"
#include "cake/util/stats.hpp"
#include "cake/util/table.hpp"

namespace cake::metrics {

/// One node's filtering-load sample.
struct NodeLoad {
  sim::NodeId id = sim::kNoNode;
  std::size_t stage = 0;  ///< 0 = subscriber process
  std::uint64_t events_received = 0;
  std::uint64_t events_matched = 0;
  std::size_t filters = 0;

  [[nodiscard]] double lc() const noexcept {
    return static_cast<double>(events_received) * static_cast<double>(filters);
  }
  [[nodiscard]] double rlc(std::uint64_t total_events,
                           std::uint64_t total_subscriptions) const noexcept;
  /// MR of a node that received nothing is reported as 0.
  [[nodiscard]] double mr() const noexcept;
};

/// Per-stage aggregation (one row of the paper's §5.3 table).
struct StageSummary {
  std::size_t stage = 0;
  std::size_t nodes = 0;
  double node_avg_rlc = 0.0;    ///< column 2 of the paper's table
  double total_node_rlc = 0.0;  ///< column 3: node-average × node count
  double node_avg_mr = 0.0;
  double node_avg_lc = 0.0;
  std::uint64_t events_received = 0;
  /// Exact sum of per-node matched counts (brokers: weakened match;
  /// stage 0: delivered). Kept as an integer — the trace pipeline's
  /// attribution must reconcile against it *exactly*, and the averaged MR
  /// doubles above cannot recover the count.
  std::uint64_t events_matched = 0;
};

/// Broker loads (stages 1..n) of an overlay.
[[nodiscard]] std::vector<NodeLoad> broker_loads(const routing::Overlay& overlay);

/// Subscriber (stage-0) loads: filters = live exact subscriptions,
/// matched = events delivered after perfect filtering.
[[nodiscard]] std::vector<NodeLoad> subscriber_loads(const routing::Overlay& overlay);

/// Groups loads by stage (ascending) and computes the summary rows.
[[nodiscard]] std::vector<StageSummary> summarize_by_stage(
    const std::vector<NodeLoad>& loads, std::uint64_t total_events,
    std::uint64_t total_subscriptions);

/// Sum of total_node_rlc over all stages — the paper's "global total of
/// RLCs", expected ≈ 1 for the multi-stage system.
[[nodiscard]] double global_rlc(const std::vector<StageSummary>& summaries);

/// Spurious deliveries at stage 0: events that reached a subscriber process
/// (forwarded by a weakened filter, Proposition 1) but failed every exact
/// filter there — received minus matched of the stage-0 row. This is the
/// exact integer the trace pipeline's per-attribute false-positive
/// attribution (trace::Collector::attribution) must sum to when every
/// event is traced. 0 when no stage-0 row is present.
[[nodiscard]] std::uint64_t spurious_deliveries(
    const std::vector<StageSummary>& summaries);

/// Renders the §5.3 table: Stage | Node avg. of RLC | Total node avg. of RLC.
[[nodiscard]] util::TextTable rlc_table(const std::vector<StageSummary>& summaries);

/// Renders a wider diagnostic table (nodes, events, MR, LC per stage).
[[nodiscard]] util::TextTable stage_table(const std::vector<StageSummary>& summaries);

/// Publish-to-delivery virtual latency merged across every subscriber
/// (count = delivered events; in virtual microseconds).
[[nodiscard]] util::RunningStats delivery_latency(const routing::Overlay& overlay);

/// Max-over-mean of match-call counts across shards of a sharded matching
/// engine: 1.0 = perfectly even traffic, N = everything hammers one of N
/// shards (publishers contend as if unsharded). 0 when no shard saw
/// traffic. Feed it LocalBus::shard_stats() or ShardedIndex::shard_stats().
[[nodiscard]] double shard_imbalance(const std::vector<index::ShardStats>& shards);

/// Per-broker aggregation counters of an overlay (broker order; all-zero
/// rows when aggregation is off). Feed it to `aggregation_table`.
[[nodiscard]] std::vector<index::AggregateStats> broker_aggregation(
    const routing::Overlay& overlay);

/// Renders the subscription-aggregation rollup (DESIGN.md §13): per broker,
/// live constituents vs merged entries (entries/subscription is the
/// table-compression headline), the merge ratio, and the churn counters
/// (widening merges, un-merges, re-cluster fusions, cost-gate rejections).
/// A totals row closes the table.
[[nodiscard]] util::TextTable aggregation_table(
    const std::vector<index::AggregateStats>& brokers);

/// Renders the false-positive attribution rollup from traced journeys:
/// per weakened attribute, the spurious stage-0 deliveries charged to it
/// and the spurious upstream broker hops its false positives travelled.
/// Rows ranked by delivery count (the paper's "which attribute do we pay
/// for weakening" question); a totals row closes the table.
[[nodiscard]] util::TextTable attribution_table(const trace::Attribution& attribution);

/// Renders per-stage rollups computed from traces alone — the Figure-7 MR
/// curve rebuilt from journeys instead of node counters. Cross-checking
/// this against `stage_table` validates the trace pipeline end to end.
[[nodiscard]] util::TextTable trace_stage_table(
    const std::vector<trace::StageRollup>& rollups);

/// Renders the link-layer resilience rollup: retransmissions, sheds,
/// duplicates suppressed, failure-detector verdicts, stream resets. Feed it
/// `Overlay::link_counters()` (or any per-node `link_counters()`); pair it
/// with `Overlay::total_reparents()` via the `reparents` argument to close
/// the self-healing story in one table.
[[nodiscard]] util::TextTable link_table(const link::LinkCounters& counters,
                                         std::uint64_t reparents = 0);

/// Unified drop accounting (DESIGN.md §15). Every place the system can
/// intentionally lose or park an event — link queue shedding, grace-pen
/// eviction, slow-child quarantine, stalled-consumer inboxes, durable
/// buffer overflow, frames to crashed peers — rolls up here, so the
/// conservation identity
///
///   published == delivered + shed (by reason) + in_flight
///
/// is checkable from one snapshot instead of scattered counters. The
/// chaos overload oracle asserts it exactly; `cake_trace summary` and
/// `cake_chaos` print the table for operators.
struct ShedLedger {
  std::uint64_t published = 0;     ///< events handed to publishers
  std::uint64_t delivered = 0;     ///< exact-filter deliveries at stage 0
  std::uint64_t link_shed = 0;     ///< link tx queue full, drop-newest
  std::uint64_t pen_dropped = 0;   ///< grace-pen eviction (oldest)
  std::uint64_t quarantine_dropped = 0;  ///< slow-child pen eviction
  std::uint64_t parked = 0;              ///< still in a pen (in-flight)
  std::uint64_t stall_dropped = 0;       ///< stalled-consumer inbox eviction
  std::uint64_t buffer_overflows = 0;    ///< durable detach buffer eviction
  std::uint64_t undeliverable = 0;  ///< frames to crashed/detached nodes

  /// Every accounted intentional loss (excludes the parked in-flight).
  [[nodiscard]] std::uint64_t total_shed() const noexcept {
    return link_shed + pen_dropped + quarantine_dropped + stall_dropped +
           buffer_overflows;
  }
};

/// Snapshots the ledger from every node's counters plus the network's
/// undeliverable count. Non-const: Network's accounting accessors are
/// aggregation reads over per-lane slots.
[[nodiscard]] ShedLedger shed_ledger(routing::Overlay& overlay);

/// Renders the ledger, one reason per row, closing with the balance line
/// `published - delivered - total_shed` (in-flight + spurious margin).
[[nodiscard]] util::TextTable shed_table(const ShedLedger& ledger);

}  // namespace cake::metrics
