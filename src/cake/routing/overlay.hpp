// Overlay construction: an arbitrarily-deep broker hierarchy plus the
// user-level endpoints, all sharing one counted network and one Transport —
// either the virtual-time scheduler (the deterministic oracle) or the
// threaded per-lane executor (paper §4, Fig. 4; DESIGN.md §14).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cake/journal/journal.hpp"
#include "cake/routing/broker.hpp"
#include "cake/routing/endpoints.hpp"
#include "cake/runtime/sim_transport.hpp"
#include "cake/runtime/threaded.hpp"

namespace cake::routing {

/// Whether brokers persist event frames to a write-ahead journal
/// (DESIGN.md §12). Off keeps every send byte-identical to the pre-journal
/// system — the zero-cost default every existing benchmark arm runs under.
enum class Durability {
  Off,      ///< soft state only; crash() loses in-pen events (the classic)
  Journal,  ///< per-broker WAL; crash() + restart() replays, zero loss
};

/// Which Transport drives the overlay (DESIGN.md §14).
enum class OverlayBackend {
  /// Deterministic single-threaded virtual time — the semantic oracle.
  /// Chaos faults, latency modelling, tracing, crash()/restart() all live
  /// here.
  Sim,
  /// Real worker threads: every node is pinned to the lane
  /// `id % workers`, so all of a node's state (broker filter table, link
  /// streams, lease timers, journal) stays single-writer, and cross-node
  /// frames travel the network's lane fabric as refcounted handoffs.
  Threaded,
};

struct OverlayConfig {
  /// Broker counts per stage, root first: {1, 10, 100} builds the paper's
  /// stage-3 root, 10 stage-2 nodes, 100 stage-1 nodes. Front must be 1.
  std::vector<std::size_t> stage_counts{1, 10, 100};
  BrokerConfig broker;
  SubscriberConfig subscriber;
  sim::Time link_latency = 1000;  // 1 virtual ms per hop
  std::uint64_t seed = 42;
  /// Link layer for every node in the overlay (brokers, subscribers,
  /// publishers). Reliable links close losses; the subscribers' event-id
  /// dedup closes duplicates — the exactly-once guarantee needs both halves.
  link::LinkOptions link;
  /// Per-event tracing (trace/trace.hpp). Disabled by default: no Tracer is
  /// even constructed, and every node keeps a null tracer pointer.
  trace::TraceConfig trace{};
  /// Durable journaling. With Durability::Journal the overlay owns one
  /// MemStorage + Journal per broker ("disk" that survives crash()), and
  /// restart(node) re-opens the journal — running recovery — before the
  /// broker cold-starts. Durable mode pairs with Reliable links: journal
  /// replay re-serves frames that may also still be in flight, and the
  /// subscriber event-id dedup is what collapses those paths to
  /// exactly-once.
  Durability durability = Durability::Off;
  journal::JournalConfig journal{};
  /// Execution backend. Threaded excludes sim-only machinery: tracing,
  /// loss/interceptor chaos, latency modelling, crash()/restart().
  OverlayBackend backend = OverlayBackend::Sim;
  /// Worker/queue options for the Threaded backend (ignored under Sim).
  runtime::ThreadedOptions threaded{};
  /// Startup validation of the documented soft-state invariants
  /// (health::validate_*): rto_max ≪ lease TTL, heartbeat_misses ≥ 2, the
  /// dedup window covering the link window, and watermark ordering wherever watermarks
  /// are enabled. Throws std::invalid_argument with an actionable message
  /// naming the offending values. Opt out only for harnesses that
  /// deliberately push timers past the run's lifetime (the backend
  /// conformance suite pins rto_max == ttl to keep wall-clock timers out of
  /// the loop).
  bool validate = true;
};

/// Owns the simulation and every node in it.
class Overlay {
public:
  explicit Overlay(OverlayConfig config,
                   const reflect::TypeRegistry& registry =
                       reflect::TypeRegistry::global());

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  ~Overlay();

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }
  /// The Transport every node in this overlay runs on: the deterministic
  /// sim backend by default (the overlay *is* the oracle configuration),
  /// or the owned ThreadedTransport under OverlayBackend::Threaded.
  [[nodiscard]] runtime::Transport& transport() noexcept {
    return threaded_ ? static_cast<runtime::Transport&>(*threaded_)
                     : static_cast<runtime::Transport&>(transport_);
  }

  /// Lane owning `node` on the threaded backend (0 under Sim — one lane).
  [[nodiscard]] std::size_t lane_of(sim::NodeId node) const noexcept {
    return threaded_ ? static_cast<std::size_t>(node) % threaded_->workers()
                     : 0;
  }

  /// Runs `fn` on the lane owning `node` and waits for quiescence
  /// (threaded backend); inline call under Sim. Control-plane helper:
  /// subscribes, publishes and any other poke at a node's state must
  /// execute on the node's lane to keep it single-writer.
  void run_on(sim::NodeId node, std::function<void()> fn);
  /// Fire-and-forget variant: posts to the owning lane without waiting
  /// (inline under Sim). The bulk-publish path of benches.
  void post_on(sim::NodeId node, std::function<void()> fn);
  [[nodiscard]] const reflect::TypeRegistry& registry() const noexcept {
    return registry_;
  }

  /// Number of broker stages (root is stage `stages()`, leaves stage 1).
  [[nodiscard]] std::size_t stages() const noexcept { return config_.stage_counts.size(); }
  [[nodiscard]] Broker& root() noexcept { return *brokers_.front(); }

  /// Broker with network id `node`, or nullptr for non-broker ids.
  [[nodiscard]] Broker* find_broker(sim::NodeId node) noexcept;

  /// Crashes the broker `node` (process failure: detaches, tasks freeze).
  /// Throws std::invalid_argument for non-broker ids.
  void crash(sim::NodeId node);
  /// Cold-restarts a crashed broker: it comes back with empty tables and
  /// children recover it — child brokers re-insert their active forms on
  /// the next renewal, subscribers get `Expired` when they renew into the
  /// cold table and re-run the join protocol. The chaos engine's
  /// crash–restart ops route through this pair.
  void restart(sim::NodeId node);
  /// Brokers at `stage` ∈ [1, stages()].
  [[nodiscard]] std::vector<Broker*> brokers_at(std::size_t stage);
  [[nodiscard]] const std::vector<std::unique_ptr<Broker>>& brokers() const noexcept {
    return brokers_;
  }

  /// Creates and starts a new stage-0 subscriber process.
  SubscriberNode& add_subscriber();
  /// Creates a new publisher connected to the root.
  PublisherNode& add_publisher();

  [[nodiscard]] const std::vector<std::unique_ptr<SubscriberNode>>& subscribers()
      const noexcept {
    return subscribers_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<PublisherNode>>& publishers()
      const noexcept {
    return publishers_;
  }

  /// Runs to quiescence: drains the scheduler under Sim (returns closures
  /// executed), waits for all foreground lane work under Threaded
  /// (returns 0 — real threads do not count steps).
  std::size_t run();

  /// The per-event tracer; null when `config.trace.enabled` is false.
  [[nodiscard]] trace::Tracer* tracer() noexcept { return tracer_.get(); }

  /// Sum of every node's link-layer counters (brokers, subscribers,
  /// publishers) — the resilience rollup behind `metrics::link_table`.
  [[nodiscard]] link::LinkCounters link_counters() const noexcept;
  /// Total parent-death re-attachments across the broker hierarchy.
  [[nodiscard]] std::uint64_t total_reparents() const noexcept;

  /// The broker's backing storage (Durability::Journal only; nullptr
  /// otherwise or for non-broker ids). Tests inspect and corrupt it
  /// directly.
  [[nodiscard]] journal::MemStorage* storage_for(sim::NodeId node) noexcept;

private:
  OverlayConfig config_;
  const reflect::TypeRegistry& registry_;
  util::Rng rng_;
  sim::Scheduler scheduler_;
  runtime::SimTransport transport_{scheduler_};  // nodes schedule through this
  // Threaded backend, when configured. Shut down in ~Overlay before any
  // node is destroyed so no lane task or timer can touch a dead broker.
  std::unique_ptr<runtime::ThreadedTransport> threaded_;
  sim::Network network_;
  sim::NodeId next_id_ = 0;
  std::unique_ptr<trace::Tracer> tracer_;         // before nodes: they point in
  // Durable storage outlives broker crash()/restart() cycles — it is the
  // "disk" of each broker machine. Declared before brokers_ so journals are
  // destroyed after the brokers pointing at them.
  std::unordered_map<sim::NodeId, std::unique_ptr<journal::MemStorage>> storage_;
  std::unordered_map<sim::NodeId, std::unique_ptr<journal::Journal>> journals_;
  std::vector<std::unique_ptr<Broker>> brokers_;  // breadth-first, root first
  std::vector<std::size_t> stage_offsets_;        // index of first broker per level
  std::vector<std::unique_ptr<SubscriberNode>> subscribers_;
  std::vector<std::unique_ptr<PublisherNode>> publishers_;
};

}  // namespace cake::routing
