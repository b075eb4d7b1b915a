#include "cake/metrics/metrics.hpp"

#include <algorithm>
#include <map>

namespace cake::metrics {

double NodeLoad::rlc(std::uint64_t total_events,
                     std::uint64_t total_subscriptions) const noexcept {
  const double denom = static_cast<double>(total_events) *
                       static_cast<double>(total_subscriptions);
  return denom == 0.0 ? 0.0 : lc() / denom;
}

double NodeLoad::mr() const noexcept {
  return events_received == 0
             ? 0.0
             : static_cast<double>(events_matched) /
                   static_cast<double>(events_received);
}

std::vector<NodeLoad> broker_loads(const routing::Overlay& overlay) {
  std::vector<NodeLoad> loads;
  loads.reserve(overlay.brokers().size());
  for (const auto& broker : overlay.brokers()) {
    const routing::BrokerStats s = broker->stats();
    loads.push_back(NodeLoad{broker->id(), broker->stage(), s.events_received,
                             s.events_matched, s.filters});
  }
  return loads;
}

std::vector<NodeLoad> subscriber_loads(const routing::Overlay& overlay) {
  std::vector<NodeLoad> loads;
  loads.reserve(overlay.subscribers().size());
  for (const auto& sub : overlay.subscribers()) {
    const routing::SubscriberStats& s = sub->stats();
    loads.push_back(NodeLoad{sub->id(), 0, s.events_received,
                             s.events_delivered, sub->subscriptions()});
  }
  return loads;
}

std::vector<StageSummary> summarize_by_stage(const std::vector<NodeLoad>& loads,
                                             std::uint64_t total_events,
                                             std::uint64_t total_subscriptions) {
  std::map<std::size_t, std::vector<const NodeLoad*>> by_stage;
  for (const NodeLoad& load : loads) by_stage[load.stage].push_back(&load);

  std::vector<StageSummary> summaries;
  summaries.reserve(by_stage.size());
  for (const auto& [stage, nodes] : by_stage) {
    StageSummary summary;
    summary.stage = stage;
    summary.nodes = nodes.size();
    for (const NodeLoad* node : nodes) {
      summary.node_avg_rlc += node->rlc(total_events, total_subscriptions);
      summary.node_avg_mr += node->mr();
      summary.node_avg_lc += node->lc();
      summary.events_received += node->events_received;
      summary.events_matched += node->events_matched;
    }
    const auto n = static_cast<double>(nodes.size());
    summary.total_node_rlc = summary.node_avg_rlc;  // sum over the stage
    summary.node_avg_rlc /= n;
    summary.node_avg_mr /= n;
    summary.node_avg_lc /= n;
    summaries.push_back(summary);
  }
  return summaries;
}

double global_rlc(const std::vector<StageSummary>& summaries) {
  double total = 0.0;
  for (const StageSummary& s : summaries) total += s.total_node_rlc;
  return total;
}

std::uint64_t spurious_deliveries(const std::vector<StageSummary>& summaries) {
  for (const StageSummary& s : summaries)
    if (s.stage == 0) return s.events_received - s.events_matched;
  return 0;
}

util::RunningStats delivery_latency(const routing::Overlay& overlay) {
  util::RunningStats merged;
  for (const auto& sub : overlay.subscribers())
    merged.merge(sub->delivery_latency());
  return merged;
}

util::TextTable rlc_table(const std::vector<StageSummary>& summaries) {
  util::TextTable table{{"Stage", "Node avg. of RLC", "Total node avg. of RLC"}};
  for (const StageSummary& s : summaries) {
    table.add_row({std::to_string(s.stage), util::format_number(s.node_avg_rlc),
                   util::format_number(s.total_node_rlc)});
  }
  return table;
}

util::TextTable stage_table(const std::vector<StageSummary>& summaries) {
  util::TextTable table{{"Stage", "Nodes", "Events recv (avg)", "Avg MR",
                         "Avg LC", "Avg RLC", "Stage RLC"}};
  for (const StageSummary& s : summaries) {
    const double avg_events =
        s.nodes == 0 ? 0.0
                     : static_cast<double>(s.events_received) /
                           static_cast<double>(s.nodes);
    table.add_row({std::to_string(s.stage), std::to_string(s.nodes),
                   util::format_number(avg_events),
                   util::format_number(s.node_avg_mr),
                   util::format_number(s.node_avg_lc),
                   util::format_number(s.node_avg_rlc),
                   util::format_number(s.total_node_rlc)});
  }
  return table;
}

double shard_imbalance(const std::vector<index::ShardStats>& shards) {
  std::uint64_t total = 0, max = 0;
  for (const index::ShardStats& s : shards) {
    total += s.matches;
    max = std::max(max, s.matches);
  }
  if (total == 0 || shards.empty()) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards.size());
  return static_cast<double>(max) / mean;
}

util::TextTable attribution_table(const trace::Attribution& attribution) {
  util::TextTable table{{"Attribute", "Spurious deliveries", "Spurious hops"}};
  std::uint64_t hops_total = 0;
  for (const auto& [attribute, count] : attribution.ranked()) {
    const auto hops_it = attribution.spurious_hops_by_attribute.find(attribute);
    const std::uint64_t hops =
        hops_it == attribution.spurious_hops_by_attribute.end() ? 0
                                                                : hops_it->second;
    hops_total += hops;
    table.add_row({attribute, std::to_string(count), std::to_string(hops)});
  }
  table.add_row({"(total)", std::to_string(attribution.total()),
                 std::to_string(hops_total)});
  return table;
}

util::TextTable trace_stage_table(const std::vector<trace::StageRollup>& rollups) {
  util::TextTable table{{"Stage", "Hops", "Matched", "MR (traced)",
                         "Latency avg µs", "Latency max µs"}};
  for (const trace::StageRollup& r : rollups) {
    table.add_row({std::to_string(r.stage), std::to_string(r.hops),
                   std::to_string(r.matched), util::format_number(r.mr()),
                   util::format_number(r.latency.mean()),
                   util::format_number(r.latency.count() == 0 ? 0.0
                                                              : r.latency.max())});
  }
  return table;
}

util::TextTable link_table(const link::LinkCounters& c, std::uint64_t reparents) {
  util::TextTable table{{"Link counter", "Count"}};
  const auto row = [&](const char* name, std::uint64_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("Data frames sent", c.data_sent);
  row("Retransmissions", c.retransmits);
  row("Events shed (queue full)", c.events_shed);
  row("Duplicates suppressed", c.duplicates_suppressed);
  row("Out-of-order frames held", c.reordered_held);
  row("ACKs sent", c.acks_sent);
  row("NACKs sent", c.nacks_sent);
  row("Heartbeats sent", c.heartbeats_sent);
  row("Peers declared dead", c.peers_declared_dead);
  row("Stream resets", c.stream_resets);
  row("Re-parent events", reparents);
  return table;
}

ShedLedger shed_ledger(routing::Overlay& overlay) {
  ShedLedger ledger;
  for (const auto& publisher : overlay.publishers())
    ledger.published += publisher->stats().events_published;
  for (const auto& subscriber : overlay.subscribers()) {
    const routing::SubscriberStats& s = subscriber->stats();
    ledger.delivered += s.events_delivered;
    ledger.stall_dropped += s.stall_inbox_dropped;
    ledger.parked += subscriber->parked();
  }
  for (const auto& broker : overlay.brokers()) {
    const routing::BrokerStats s = broker->stats();
    ledger.pen_dropped += s.events_pen_dropped;
    ledger.quarantine_dropped += s.events_quarantine_dropped;
    ledger.buffer_overflows += s.buffer_overflows;
    ledger.parked += broker->parked();
  }
  ledger.link_shed = overlay.link_counters().events_shed;
  ledger.undeliverable = overlay.network().undeliverable();
  return ledger;
}

util::TextTable shed_table(const ShedLedger& ledger) {
  util::TextTable table{{"Conservation ledger", "Count"}};
  const auto row = [&](const char* name, std::uint64_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("Events published", ledger.published);
  row("Events delivered (stage 0)", ledger.delivered);
  row("Shed: link queue full", ledger.link_shed);
  row("Shed: grace pen evicted", ledger.pen_dropped);
  row("Shed: quarantine pen evicted", ledger.quarantine_dropped);
  row("Shed: stall inbox evicted", ledger.stall_dropped);
  row("Shed: durable buffer evicted", ledger.buffer_overflows);
  row("Parked in pens", ledger.parked);
  row("Undeliverable (dead peers)", ledger.undeliverable);
  // Fan-out makes this signed: delivered counts per-subscriber copies, so
  // a multi-subscriber workload drives it negative. The overload oracle
  // checks the identity per subscriber, where it is exact.
  table.add_row({"Balance (pub - del - shed)",
                 std::to_string(static_cast<std::int64_t>(ledger.published) -
                                static_cast<std::int64_t>(ledger.delivered) -
                                static_cast<std::int64_t>(ledger.total_shed()))});
  return table;
}

std::vector<index::AggregateStats> broker_aggregation(
    const routing::Overlay& overlay) {
  std::vector<index::AggregateStats> stats;
  for (const auto& broker : overlay.brokers())
    stats.push_back(broker->aggregate_stats());
  return stats;
}

util::TextTable aggregation_table(
    const std::vector<index::AggregateStats>& brokers) {
  util::TextTable table{{"Broker", "Subs", "Entries", "Entries/sub",
                         "Merge ratio", "Merges", "Widened", "Un-merges",
                         "Reclustered", "Rejected"}};
  index::AggregateStats total;
  for (std::size_t i = 0; i < brokers.size(); ++i) {
    const index::AggregateStats& s = brokers[i];
    table.add_row({std::to_string(i), std::to_string(s.constituents),
                   std::to_string(s.groups),
                   util::format_number(s.entries_per_subscription()),
                   util::format_number(s.merge_ratio()),
                   std::to_string(s.merges), std::to_string(s.widening_merges),
                   std::to_string(s.unmerges),
                   std::to_string(s.recluster_merges),
                   std::to_string(s.rejected)});
    total.constituents += s.constituents;
    total.groups += s.groups;
    total.merges += s.merges;
    total.widening_merges += s.widening_merges;
    total.unmerges += s.unmerges;
    total.recluster_merges += s.recluster_merges;
    total.rejected += s.rejected;
  }
  table.add_row({"total", std::to_string(total.constituents),
                 std::to_string(total.groups),
                 util::format_number(total.entries_per_subscription()),
                 util::format_number(total.merge_ratio()),
                 std::to_string(total.merges),
                 std::to_string(total.widening_merges),
                 std::to_string(total.unmerges),
                 std::to_string(total.recluster_merges),
                 std::to_string(total.rejected)});
  return table;
}

}  // namespace cake::metrics
