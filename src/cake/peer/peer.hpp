// Non-hierarchical (peer-to-peer) broker configuration.
//
// The paper's §4 footnote: "Non-hierarchical configurations can also be
// used, but they have a higher complexity and are not described in this
// paper." This module implements that alternative so the claim can be
// quantified (bench A9): brokers form an arbitrary *acyclic* graph with
// no root and no stages; publishers and subscribers attach to any broker.
//
// Routing is Siena-style reverse-path forwarding:
//
//   * a subscription installed at a broker propagates to every neighbor
//     except its origin link; each broker records <filter, origin> in its
//     routing table;
//   * per link, only the covering antichain of filters is advertised
//     (the same §3.4 collapse used by the hierarchy — here it is the
//     *only* table-size control, since there is no stage weakening);
//   * an event entering a broker is matched against the table and
//     forwarded to each matching destination except the link it arrived
//     on; acyclicity makes delivery exactly-once per matching subscriber.
//
// The contrast with the staged hierarchy is the point: exact filters
// travel everywhere demand exists (bigger tables, no approximate
// pre-filtering), in exchange for shorter paths and no root bottleneck.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cake/index/index.hpp"
#include "cake/runtime/sim_transport.hpp"
#include "cake/sim/sim.hpp"
#include "cake/util/rng.hpp"
#include "cake/util/stats.hpp"
#include "cake/weaken/weaken.hpp"

namespace cake::peer {

struct PeerConfig {
  index::Engine engine = index::Engine::Naive;
  /// Advertise only the covering antichain per link (§3.4 collapse).
  bool collapse_per_link = true;
  /// Siena-style advertisement semantics: subscriptions are forwarded only
  /// over links from which an *overlapping* publisher advertisement
  /// arrived. Publishers must advertise (PeerPublisher::advertise) before
  /// publishing, and publish only events matching their advertisements.
  bool use_advertisements = false;
};

/// Messages of the peer protocol.
struct PeerSub {
  filter::ConjunctiveFilter filter;
};
struct PeerUnsub {
  filter::ConjunctiveFilter filter;
};
struct PeerAdvertise {
  filter::ConjunctiveFilter filter;  ///< what a publisher will emit
};
struct PeerUnadvertise {
  filter::ConjunctiveFilter filter;
};
struct PeerEvent {
  event::EventImage image;
  sim::Time published_at = 0;
};
using PeerPacket =
    std::variant<PeerSub, PeerUnsub, PeerAdvertise, PeerUnadvertise, PeerEvent>;

[[nodiscard]] sim::Network::Payload encode(const PeerPacket& packet);
[[nodiscard]] PeerPacket decode(std::span<const std::byte> payload);

/// Per-broker counters (mirrors routing::BrokerStats where meaningful).
struct PeerBrokerStats {
  std::uint64_t events_received = 0;
  std::uint64_t events_matched = 0;
  std::uint64_t events_forwarded = 0;
  std::uint64_t control_received = 0;
  std::uint64_t malformed_packets = 0;
  std::size_t filters = 0;  ///< live routing-table entries
};

class PeerBroker {
public:
  PeerBroker(sim::NodeId id, sim::Network& network,
             const reflect::TypeRegistry& registry, PeerConfig config);

  PeerBroker(const PeerBroker&) = delete;
  PeerBroker& operator=(const PeerBroker&) = delete;

  /// Topology wiring (must be mirrored on the other broker); call before
  /// start(). The overall graph must be acyclic.
  void add_neighbor(sim::NodeId neighbor) { neighbors_.push_back(neighbor); }

  void start();

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<sim::NodeId>& neighbors() const noexcept {
    return neighbors_;
  }
  [[nodiscard]] PeerBrokerStats stats() const noexcept;

  /// Filters currently advertised over the link to `neighbor`.
  [[nodiscard]] std::size_t advertised_to(sim::NodeId neighbor) const;

  /// Publisher advertisements known at this broker.
  [[nodiscard]] std::size_t known_advertisements() const noexcept {
    return adverts_.size();
  }

private:
  struct Entry {
    filter::ConjunctiveFilter filter;
    std::vector<sim::NodeId> origins;  // neighbors or local subscribers
  };

  void on_packet(sim::NodeId from, const sim::Network::Payload& payload);
  void handle(PeerSub&& msg, sim::NodeId from);
  void handle(PeerUnsub&& msg, sim::NodeId from);
  void handle(PeerAdvertise&& msg, sim::NodeId from);
  void handle(PeerUnadvertise&& msg, sim::NodeId from);
  /// Events carry the inbound frame alongside the decoded image: the frame
  /// is hop-invariant (no per-hop fields), so fan-out forwards the original
  /// refcounted bytes instead of re-encoding per target (DESIGN.md §9).
  void handle(PeerEvent&& msg, sim::NodeId from,
              const sim::Network::Payload& payload);
  /// With advertisements on: may subscriptions travel to `neighbor` at all
  /// for filter `f` (i.e. did an overlapping advertisement arrive from it)?
  [[nodiscard]] bool demand_behind(sim::NodeId neighbor,
                                   const filter::ConjunctiveFilter& f) const;

  /// Recomputes what the link to `neighbor` should carry (all filters not
  /// originated by it, collapsed when configured) and sends the diff.
  void resync_link(sim::NodeId neighbor);
  void send(sim::NodeId to, const PeerPacket& packet);

  sim::NodeId id_;
  sim::Network& network_;
  const reflect::TypeRegistry& registry_;
  PeerConfig config_;
  std::vector<sim::NodeId> neighbors_;

  std::unique_ptr<index::MatchIndex> index_;
  std::unordered_map<index::FilterId, Entry> entries_;
  std::unordered_map<filter::ConjunctiveFilter, index::FilterId> by_filter_;
  std::unordered_map<sim::NodeId, std::unordered_set<filter::ConjunctiveFilter>>
      advertised_;  // subscription filters sent per neighbor
  struct Advert {
    filter::ConjunctiveFilter filter;
    std::vector<sim::NodeId> origins;  // links (or local pubs) it came from
  };
  std::vector<Advert> adverts_;

  PeerBrokerStats stats_;
  index::MatchScratch scratch_;
  std::vector<index::FilterId> match_scratch_;
  std::vector<sim::NodeId> target_scratch_;
};

/// Stage-0 process attached to one peer broker.
class PeerSubscriber {
public:
  using Handler = std::function<void(const event::EventImage&)>;

  PeerSubscriber(sim::NodeId id, sim::NodeId home, sim::Network& network,
                 const runtime::Transport& transport,
                 const reflect::TypeRegistry& registry);

  PeerSubscriber(const PeerSubscriber&) = delete;
  PeerSubscriber& operator=(const PeerSubscriber&) = delete;

  void start();

  /// Registers an exact filter at the home broker.
  void subscribe(filter::ConjunctiveFilter exact, Handler handler);
  void unsubscribe(const filter::ConjunctiveFilter& exact);

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t events_received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t events_delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::size_t subscriptions() const noexcept { return subs_.size(); }
  [[nodiscard]] const util::RunningStats& delivery_latency() const noexcept {
    return latency_;
  }

private:
  void on_packet(sim::NodeId from, const sim::Network::Payload& payload);

  sim::NodeId id_;
  sim::NodeId home_;
  sim::Network& network_;
  const runtime::Transport& transport_;
  const reflect::TypeRegistry& registry_;
  std::vector<std::pair<filter::ConjunctiveFilter, Handler>> subs_;
  std::uint64_t received_ = 0;
  std::uint64_t delivered_ = 0;
  util::RunningStats latency_;
};

/// Publisher attached to one peer broker.
class PeerPublisher {
public:
  PeerPublisher(sim::NodeId id, sim::NodeId home, sim::Network& network,
                const runtime::Transport& transport)
      : id_(id), home_(home), network_(network), transport_(transport) {}

  void publish(event::EventImage image);
  void publish(const event::Event& event);

  /// Announces what this publisher will emit (advertisement semantics).
  void advertise(filter::ConjunctiveFilter filter);
  void unadvertise(filter::ConjunctiveFilter filter);

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t events_published() const noexcept { return published_; }

private:
  sim::NodeId id_;
  sim::NodeId home_;
  sim::Network& network_;
  const runtime::Transport& transport_;
  std::uint64_t published_ = 0;
};

/// Owns a random-tree peer mesh plus its endpoints (the A9 test/bench rig).
class PeerMesh {
public:
  /// Builds `brokers` nodes connected as a random spanning tree (acyclic
  /// by construction); endpoints attach to brokers round-robin unless a
  /// home is given explicitly.
  PeerMesh(std::size_t brokers, PeerConfig config, std::uint64_t seed = 42,
           const reflect::TypeRegistry& registry = reflect::TypeRegistry::global());

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }
  [[nodiscard]] const std::vector<std::unique_ptr<PeerBroker>>& brokers() const noexcept {
    return brokers_;
  }

  PeerSubscriber& add_subscriber();
  PeerSubscriber& add_subscriber(std::size_t broker_index);
  PeerPublisher& add_publisher();
  PeerPublisher& add_publisher(std::size_t broker_index);

  [[nodiscard]] const std::vector<std::unique_ptr<PeerSubscriber>>& subscribers()
      const noexcept {
    return subscribers_;
  }

  std::size_t run() { return scheduler_.run(); }

private:
  const reflect::TypeRegistry& registry_;
  util::Rng rng_;
  sim::Scheduler scheduler_;
  runtime::SimTransport transport_{scheduler_};
  sim::Network network_;
  sim::NodeId next_id_ = 0;
  std::size_t next_home_ = 0;
  std::vector<std::unique_ptr<PeerBroker>> brokers_;
  std::vector<std::unique_ptr<PeerSubscriber>> subscribers_;
  std::vector<std::unique_ptr<PeerPublisher>> publishers_;
};

}  // namespace cake::peer
