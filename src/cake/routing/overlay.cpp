#include "cake/routing/overlay.hpp"

#include <stdexcept>

#include "cake/health/health.hpp"

namespace cake::routing {

Overlay::Overlay(OverlayConfig config, const reflect::TypeRegistry& registry)
    : config_(std::move(config)),
      registry_(registry),
      rng_(config_.seed),
      network_(scheduler_, config_.link_latency) {
  if (config_.stage_counts.empty() || config_.stage_counts.front() != 1)
    throw std::invalid_argument{
        "Overlay: stage_counts must start with a single root"};

  if (config_.backend == OverlayBackend::Threaded) {
    if (config_.trace.enabled)
      throw std::invalid_argument{
          "Overlay: tracing is sim-backend-only (run the oracle config)"};
    threaded_ = std::make_unique<runtime::ThreadedTransport>(config_.threaded);
    // Delivery fabric: node n's frames run on its own lane, n % workers.
    network_.bind_lanes(*threaded_);
  }

  if (config_.trace.enabled)
    tracer_ = std::make_unique<trace::Tracer>(config_.trace);

  // One link policy for the whole overlay: a reliable broker sending tagged
  // frames at a best-effort peer would retransmit into the void forever.
  config_.broker.link = config_.link;
  config_.subscriber.link = config_.link;

  // Fail fast on configurations the docs only used to warn about
  // (DESIGN.md §15): each check throws std::invalid_argument naming the
  // offending values and the rule. The reliable-only checks guard machinery
  // best-effort links never run (retransmit cadence vs. lease TTL, the
  // failure detector, the dedup window against the link window).
  if (config_.validate) {
    if (config_.link.reliability == link::Reliability::Reliable) {
      health::validate_rto_vs_ttl(config_.link.rto_max, config_.broker.ttl);
      health::validate_heartbeat_misses(config_.link.heartbeat_misses);
      health::validate_dedup_capacity(kDedupWindow, config_.link.window);
    }
    if (config_.broker.quarantine)
      config_.broker.child_queue.validate("broker child queue");
  }
  // Aggregated tables cause spurious forwards the stage schema cannot
  // explain; the subscriber-side "⊔" blame keeps them attributed so the
  // trace reconciliation stays exact (zero unattributed).
  if (config_.broker.aggregate.enabled) config_.subscriber.merge_blame = true;

  const std::size_t levels = config_.stage_counts.size();
  for (std::size_t level = 0; level < levels; ++level) {
    stage_offsets_.push_back(brokers_.size());
    const std::size_t stage = levels - level;  // root has the highest stage
    for (std::size_t i = 0; i < config_.stage_counts[level]; ++i) {
      brokers_.push_back(std::make_unique<Broker>(next_id_++, stage, network_,
                                                  transport(), registry_,
                                                  config_.broker, rng_.split()));
    }
  }

  // Wire children to parents, distributing each level evenly.
  for (std::size_t level = 1; level < levels; ++level) {
    const std::size_t parents = config_.stage_counts[level - 1];
    const std::size_t kids = config_.stage_counts[level];
    for (std::size_t i = 0; i < kids; ++i) {
      Broker& child = *brokers_[stage_offsets_[level] + i];
      Broker& parent = *brokers_[stage_offsets_[level - 1] + i * parents / kids];
      child.set_parent(parent.id());
      parent.add_child(child.id());
    }
  }

  // Distribute the ancestor chains ([parent, grandparent, …, root]) that
  // self-healing re-parenting climbs when a parent dies.
  for (const auto& broker : brokers_) {
    std::vector<sim::NodeId> chain;
    for (sim::NodeId cur = broker->parent(); cur != sim::kNoNode;) {
      chain.push_back(cur);
      const Broker* up = find_broker(cur);
      cur = up == nullptr ? sim::kNoNode : up->parent();
    }
    if (!chain.empty()) broker->set_ancestors(std::move(chain));
  }

  // Durable mode: give every broker its own "disk" (a MemStorage that
  // survives crash()) and an open journal over it.
  if (config_.durability == Durability::Journal) {
    for (const auto& broker : brokers_) {
      auto storage = std::make_unique<journal::MemStorage>();
      auto journal =
          std::make_unique<journal::Journal>(*storage, config_.journal);
      broker->set_journal(journal.get());
      storage_.emplace(broker->id(), std::move(storage));
      journals_.emplace(broker->id(), std::move(journal));
    }
  }

  for (const auto& broker : brokers_) {
    broker->set_tracer(tracer_.get());
    // start() attaches the network handler and arms the broker's standing
    // timers. On the threaded backend it must run on the broker's own lane
    // so those timers (and every future callback) inherit the broker's
    // lane affinity; the per-broker drain inside run_on also serializes
    // the handler-table writes across lanes.
    run_on(broker->id(), [&b = *broker] { b.start(); });
  }
}

Overlay::~Overlay() {
  // Stop lanes and timers while every node is still alive: queued tasks
  // capture raw broker/endpoint pointers.
  if (threaded_) threaded_->shutdown();
}

std::size_t Overlay::run() {
  if (threaded_) {
    threaded_->drain();
    return 0;
  }
  return scheduler_.run();
}

void Overlay::run_on(sim::NodeId node, std::function<void()> fn) {
  if (!threaded_) {
    fn();
    return;
  }
  threaded_->post(lane_of(node), std::move(fn));
  threaded_->drain();
}

void Overlay::post_on(sim::NodeId node, std::function<void()> fn) {
  if (!threaded_) {
    fn();
    return;
  }
  threaded_->post(lane_of(node), std::move(fn));
}

link::LinkCounters Overlay::link_counters() const noexcept {
  link::LinkCounters total;
  for (const auto& broker : brokers_) total += broker->link_counters();
  for (const auto& sub : subscribers_) total += sub->link_counters();
  for (const auto& pub : publishers_) total += pub->link_counters();
  return total;
}

std::uint64_t Overlay::total_reparents() const noexcept {
  std::uint64_t total = 0;
  for (const auto& broker : brokers_) total += broker->stats().reparents;
  return total;
}

std::vector<Broker*> Overlay::brokers_at(std::size_t stage) {
  if (stage == 0 || stage > stages())
    throw std::out_of_range{"Overlay: stage out of range"};
  const std::size_t level = stages() - stage;
  std::vector<Broker*> result;
  result.reserve(config_.stage_counts[level]);
  for (std::size_t i = 0; i < config_.stage_counts[level]; ++i)
    result.push_back(brokers_[stage_offsets_[level] + i].get());
  return result;
}

Broker* Overlay::find_broker(sim::NodeId node) noexcept {
  for (const auto& broker : brokers_)
    if (broker->id() == node) return broker.get();
  return nullptr;
}

void Overlay::crash(sim::NodeId node) {
  if (threaded_)
    throw std::logic_error{
        "Overlay::crash: sim-backend-only (chaos runs on the oracle)"};
  Broker* broker = find_broker(node);
  if (broker == nullptr)
    throw std::invalid_argument{"Overlay::crash: not a broker id"};
  broker->crash();
}

void Overlay::restart(sim::NodeId node) {
  if (threaded_)
    throw std::logic_error{
        "Overlay::restart: sim-backend-only (chaos runs on the oracle)"};
  Broker* broker = find_broker(node);
  if (broker == nullptr)
    throw std::invalid_argument{"Overlay::restart: not a broker id"};
  if (const auto it = storage_.find(node); it != storage_.end()) {
    // Re-open the journal over the surviving storage — this runs the
    // recovery scan (torn-tail truncation included), exactly what a real
    // process would do on boot — then let the broker replay it.
    auto journal =
        std::make_unique<journal::Journal>(*it->second, config_.journal);
    broker->set_journal(journal.get());
    journals_[node] = std::move(journal);
  }
  broker->restart();
}

journal::MemStorage* Overlay::storage_for(sim::NodeId node) noexcept {
  const auto it = storage_.find(node);
  return it == storage_.end() ? nullptr : it->second.get();
}

SubscriberNode& Overlay::add_subscriber() {
  subscribers_.push_back(std::make_unique<SubscriberNode>(
      next_id_++, root().id(), network_, transport(), registry_,
      config_.subscriber));
  SubscriberNode& sub = *subscribers_.back();
  sub.set_tracer(tracer_.get());
  // Threaded backend: setup-time only (network attach must not race
  // in-flight traffic); start on the owning lane for timer affinity.
  run_on(sub.id(), [&sub] { sub.start(); });
  return sub;
}

PublisherNode& Overlay::add_publisher() {
  publishers_.push_back(std::make_unique<PublisherNode>(
      next_id_++, root().id(), network_, transport(), config_.link));
  publishers_.back()->set_tracer(tracer_.get());
  return *publishers_.back();
}

}  // namespace cake::routing
