// Per-link reliability and failure detection under the overlay.
//
// The paper's soft-state layer (§4.3) repairs *subscriptions* after faults;
// this module makes the channels themselves dependable, so the matching
// layer above can assume lossless, in-order, duplicate-free child↔parent
// links (the SIENA/Gryphon layering). A `LinkManager` sits between a node
// and `sim::Network`:
//
//   * every outbound frame gets a per-(src,dst) sequence number, carried
//     out-of-band in a `sim::LinkTag` so the frame bytes — and the broker
//     pass-through fast path — stay untouched;
//   * the receiver deduplicates, holds reordered frames, and releases them
//     in order; cumulative ACKs piggyback on reverse traffic with a delayed
//     standalone ACK (and gap NACKs) as fallback;
//   * the sender retransmits on timeout with exponential backoff plus
//     deterministic seeded jitter, entirely Scheduler-driven, so runs are
//     seed-reproducible;
//   * the in-flight window is bounded; overflow applies the shed policy —
//     control packets are never shed, events shed drop-newest;
//   * idle links exchange heartbeats; a peer missing `heartbeat_misses`
//     consecutive intervals is declared dead and the link-down callback
//     fires (the overlay's re-parenting trigger).
//
// `Reliability::BestEffort` (the default) bypasses all of it: sends go
// straight to the network untagged, byte-identical to the pre-link system.
//
// Durable (journaled) brokers deliberately re-send event frames this layer
// already delivered once: journal replay after a restart, pen bounces, and
// recovery-window relays all re-drive the same frame bytes over *fresh*
// sessions, which this dedup cannot pair with the pre-crash copies. That is
// by design — link dedup only collapses retransmissions within one stream
// session; cross-crash duplicates are collapsed one layer up by the
// subscriber-side event-id dedup (SubscriberNode's per-publisher sequence
// windows). Keep that layering in mind before "fixing" either side.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cake/runtime/background.hpp"
#include "cake/runtime/transport.hpp"
#include "cake/sim/sim.hpp"
#include "cake/util/flat_table.hpp"
#include "cake/util/rng.hpp"
#include "cake/wire/wire.hpp"

namespace cake::link {

/// Wire tags of the link-control packets. They extend the routing Tag enum
/// (protocol.cpp static_asserts the alignment); the values live here so the
/// link layer can frame its own control packets without depending on
/// routing.
inline constexpr std::uint8_t kAckTag = 11;
inline constexpr std::uint8_t kNackTag = 12;
inline constexpr std::uint8_t kHeartbeatTag = 13;
inline constexpr std::uint8_t kCreditTag = 14;

/// Cumulative acknowledgement: every seq <= `cum` of stream `session`
/// arrived. Standalone form of the LinkTag piggyback.
struct Ack {
  std::uint32_t session = 0;
  std::uint64_t cum = 0;
};

/// Gap report: `missing` is the first sequence the receiver lacks.
/// `missing == 0` is a resync request — the receiver has no state for the
/// stream (it restarted); the sender must restart the stream from 1.
struct Nack {
  std::uint32_t session = 0;
  std::uint64_t missing = 0;
};

/// Liveness probe (`reply == false`) or its echo (`reply == true`).
struct Heartbeat {
  std::uint32_t session = 0;
  std::uint64_t nonce = 0;
  bool reply = false;
};

/// Receiver credit grant for stream `session`: the sender may admit event
/// frames with sequence numbers up to and including `limit`. Grants are
/// cumulative and idempotent — the sender keeps the max it has seen, so a
/// lost or reordered Credit frame costs pacing, never correctness. Control
/// frames are exempt: they are admitted past the credit limit so a stalled
/// consumer can never starve Subscribe/Renew/Ack/Heartbeat traffic
/// (the structural priority rule, DESIGN.md §15).
struct Credit {
  std::uint32_t session = 0;
  std::uint64_t limit = 0;
};

/// Field codecs (the caller writes/consumed the tag byte — routing's
/// Encoder and `LinkManager`'s standalone framing share these).
void encode_fields(wire::Writer& w, const Ack& m);
void encode_fields(wire::Writer& w, const Nack& m);
void encode_fields(wire::Writer& w, const Heartbeat& m);
void encode_fields(wire::Writer& w, const Credit& m);
[[nodiscard]] Ack decode_ack_fields(wire::Reader& r);
[[nodiscard]] Nack decode_nack_fields(wire::Reader& r);
[[nodiscard]] Heartbeat decode_heartbeat_fields(wire::Reader& r);
[[nodiscard]] Credit decode_credit_fields(wire::Reader& r);

enum class Reliability : std::uint8_t {
  BestEffort,  ///< untagged sends straight to the network (measurement baseline)
  Reliable,    ///< sequenced, acknowledged, retransmitted, failure-detected
};

struct LinkOptions {
  Reliability reliability = Reliability::BestEffort;
  /// First retransmission timeout; doubles per consecutive expiry.
  sim::Time rto_initial = 8'000;
  /// Backoff ceiling. Deliberately a fraction of `heartbeat_interval` (and
  /// far below any lease TTL): under sustained heavy loss the retransmit
  /// cadence is what keeps renewals landing before leases expire — a cap
  /// near the TTL starves the lease pipeline no matter what the overlay
  /// does, and a flapping link must recover faster than the failure
  /// detector gives up on it.
  sim::Time rto_max = 64'000;
  /// Max unacknowledged frames per peer before sends queue.
  std::size_t window = 64;
  /// Max queued-behind-the-window frames per peer before the shed policy
  /// applies (events drop-newest; control is never shed and may exceed it).
  std::size_t queue_limit = 1024;
  /// Standalone-ACK flush delay (piggybacking on reverse traffic cancels it).
  sim::Time ack_delay = 2'000;
  /// Watched peers silent for a full interval accrue one miss.
  sim::Time heartbeat_interval = 200'000;
  /// Dead at exactly this many consecutive misses. Clamped to >= 2 at
  /// construction: the first silent interval must get a ping out (and a
  /// reply back) before the verdict can fall, or every idle-but-healthy
  /// link is a guaranteed false positive.
  std::uint32_t heartbeat_misses = 3;
  /// Credit-based flow control for event frames (off by default — the wire
  /// behavior is then byte-identical to the pre-credit layer). When on,
  /// each receiver grants the sender a cumulative sequence-space budget;
  /// events beyond it queue at the sender instead of blind-firing into RTO
  /// retransmit storms. Control frames always bypass credit.
  bool credit = false;
  /// Sequence-space headroom each grant extends past the receiver's
  /// release point (and the sender's implicit initial budget on a fresh
  /// stream). A new grant goes out once half the budget is consumed.
  std::size_t credit_window = 64;
};

/// Aggregated per-node link counters (metrics::link_table renders them).
struct LinkCounters {
  std::uint64_t data_sent = 0;       ///< sequenced frames admitted to the wire
  std::uint64_t retransmits = 0;
  std::uint64_t events_shed = 0;     ///< drop-newest on window+queue overflow
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t reordered_held = 0;  ///< frames parked for in-order release
  std::uint64_t acks_sent = 0;       ///< standalone ACK packets
  std::uint64_t nacks_sent = 0;
  std::uint64_t heartbeats_sent = 0; ///< pings and pongs
  std::uint64_t peers_declared_dead = 0;
  std::uint64_t stream_resets = 0;   ///< resync restarts of a stream
  std::uint64_t credits_sent = 0;    ///< standalone Credit grants
  std::uint64_t credit_stalls = 0;   ///< events queued awaiting credit

  LinkCounters& operator+=(const LinkCounters& o) noexcept;
};

/// One node's end of every link it speaks on.
class LinkManager {
public:
  using Payload = sim::Network::Payload;
  /// Upward delivery of an in-order, deduplicated data frame.
  using Deliver = std::function<void(sim::NodeId from, const Payload& payload)>;
  using PeerDown = std::function<void(sim::NodeId peer)>;
  /// Observes every retransmitted frame (the trace layer hooks in here to
  /// stamp Retransmit spans for traced events).
  using RetransmitProbe =
      std::function<void(sim::NodeId to, const Payload& payload)>;

  LinkManager(sim::NodeId id, sim::Network& network, runtime::Transport& transport,
              LinkOptions options, std::uint64_t seed);

  LinkManager(const LinkManager&) = delete;
  LinkManager& operator=(const LinkManager&) = delete;

  [[nodiscard]] bool reliable() const noexcept {
    return options_.reliability == Reliability::Reliable;
  }
  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] const LinkCounters& counters() const noexcept {
    return counters_;
  }

  /// Attaches to the network. Reliable mode installs a tagged handler that
  /// consumes link control and releases data frames to `deliver`;
  /// best-effort installs `deliver` directly.
  void attach(Deliver deliver);
  /// Detaches from the network (crash). Per-peer state freezes; timers go
  /// dormant. The heartbeat stops at its next tick, so a re-attach within
  /// one interval keeps its phase.
  void detach();
  /// Clears every stream and watch (cold restart has no disk). Fresh
  /// streams get new session ids, so peers discard stale state on contact.
  void reset();

  /// Reliable send of a control-plane packet: sequenced, retransmitted,
  /// never shed. Best-effort mode forwards untagged.
  void send_control(sim::NodeId to, Payload payload);
  /// Reliable send of an event frame: sequenced, retransmitted, but
  /// sheddable drop-newest when window and queue are full.
  void send_event(sim::NodeId to, Payload payload);

  /// Starts heartbeat failure detection of `peer`.
  void watch(sim::NodeId peer);
  void unwatch(sim::NodeId peer);
  void set_peer_down(PeerDown cb) { peer_down_ = std::move(cb); }
  void set_retransmit_probe(RetransmitProbe probe) {
    retransmit_probe_ = std::move(probe);
  }

  /// False only while a watched peer stands declared dead.
  [[nodiscard]] bool peer_alive(sim::NodeId peer) const noexcept;
  /// Consecutive heartbeat misses accrued against a watched peer.
  [[nodiscard]] std::uint32_t heartbeat_misses(sim::NodeId peer) const noexcept;

  /// Re-routes every unacknowledged and queued frame bound for `from`
  /// through `to`, preserving order and shed class (re-parenting: the new
  /// parent takes over the dead one's stream), then forgets `from`.
  void redirect(sim::NodeId from, sim::NodeId to);
  /// Drops all transmit/receive state toward `peer`.
  void forget(sim::NodeId peer);

  /// Unacknowledged frames currently in flight toward `peer` (tests).
  [[nodiscard]] std::size_t in_flight(sim::NodeId peer) const noexcept;

  /// Event frames queued toward `peer` behind the window or an exhausted
  /// credit budget — the broker's slow-child signal (DESIGN.md §15).
  [[nodiscard]] std::size_t queued_events(sim::NodeId peer) const noexcept;
  /// True while events toward `peer` are queueing on an exhausted credit
  /// budget specifically (window space exists but the grant ran out):
  /// credit starvation, the second half of the slow-child signal.
  [[nodiscard]] bool credit_starved(sim::NodeId peer) const noexcept;

  /// Removes and returns every *queued* (not yet sequenced) event frame
  /// toward `peer`, oldest first. Queued control frames are untouched —
  /// only the sheddable class can be quarantined. The broker's slow-child
  /// path moves these into its pen so a stalled subscriber stops pinning
  /// sender-side memory and dragging siblings.
  [[nodiscard]] std::vector<Payload> take_pending_events(sim::NodeId peer);

  /// Stops granting credit on every receive stream (stalled consumer):
  /// senders drain their remaining budget and then queue. `false` resumes
  /// and immediately re-grants on every synced stream. No-op unless
  /// `LinkOptions::credit` is on.
  void set_credit_paused(bool paused);

  /// Position marker on the tx stream toward a peer: the stream session
  /// plus the sequence the most recently accepted (admitted or queued)
  /// frame holds — or will hold, once the window frees up. Sequences are
  /// dense over accepted frames, so `acked >= seq` under the same session
  /// means everything accepted up to the mark has been delivered, however
  /// much newer traffic is still in flight. A default-constructed mark
  /// (session 0) marks an empty stream and is always reached.
  struct TxMark {
    std::uint32_t session = 0;
    std::uint64_t seq = 0;
  };
  /// Marks the current end of the accepted tx stream toward `peer`.
  [[nodiscard]] TxMark tx_mark(sim::NodeId peer) const noexcept;
  /// True once every frame accepted toward `peer` at `mark` time has been
  /// cumulatively acknowledged. A stream reset since the mark (session
  /// mismatch) reports false — the outstanding frames were re-enqueued
  /// under a fresh session, so the caller must take a new mark.
  [[nodiscard]] bool tx_reached(sim::NodeId peer, TxMark mark) const noexcept;

private:
  struct TxFrame {
    Payload payload;
    bool event = false;  // sheddable class
  };
  struct TxState {
    std::uint32_t session = 0;
    std::uint64_t next_seq = 1;  // next sequence to assign
    std::uint64_t acked = 0;     // cumulative: all <= acked acknowledged
    // Ring of unacked frames [acked+1, next_seq-1], slot = seq % window.
    std::vector<TxFrame> window;
    // Frames waiting behind the window, split by class so the priority
    // rule is structural: queued control always drains before queued
    // events, and only the event queue is subject to credit and shedding.
    std::deque<TxFrame> pending_ctrl;
    std::deque<TxFrame> pending_events;
    // Highest event-admissible sequence granted by the receiver (credit
    // mode). Initialized to credit_window on stream start; Credit frames
    // max-merge into it.
    std::uint64_t credit_limit = 0;
    std::uint32_t backoff = 0;  // consecutive RTO expiries
    bool timer_armed = false;
    sim::Time rto_deadline = 0;
  };
  struct HoldSlot {
    Payload payload;
    std::uint64_t seq = 0;
    bool present = false;
  };
  struct RxState {
    std::uint32_t session = 0;
    bool synced = false;
    std::uint64_t delivered = 0;  // all <= delivered released upward
    std::vector<HoldSlot> hold;   // reorder ring, slot = seq % capacity
    bool ack_armed = false;
    std::uint64_t last_nacked = 0;
    sim::Time last_nack_time = 0;
    std::uint64_t credit_granted = 0;  // last limit sent (credit mode)
  };
  struct WatchState {
    bool watched = false;
    bool dead = false;
    std::uint32_t misses = 0;
    sim::Time last_heard = 0;
  };
  /// A peer's records, any of them null while it has none of that kind.
  struct PeerRefs {
    TxState* tx = nullptr;
    RxState* rx = nullptr;
    WatchState* watch = nullptr;
  };

  [[nodiscard]] std::size_t hold_capacity() const noexcept {
    return options_.window * 2;
  }
  [[nodiscard]] std::size_t unacked(const TxState& tx) const noexcept {
    return static_cast<std::size_t>(tx.next_seq - 1 - tx.acked);
  }

  /// Events are admissible while the receiver's credit budget covers the
  /// next sequence (always true with credit off). Control ignores this.
  [[nodiscard]] bool event_admissible(const TxState& tx) const noexcept {
    return !options_.credit || tx.next_seq <= tx.credit_limit;
  }

  [[nodiscard]] PeerRefs refs(sim::NodeId peer) const noexcept {
    const PeerRefs* found = peers_.find(peer);
    return found != nullptr ? *found : PeerRefs{};
  }
  /// The peer's record of each kind, created on first use.
  TxState& tx_of(sim::NodeId peer);
  RxState& rx_of(sim::NodeId peer);
  WatchState& watch_of(sim::NodeId peer);
  /// Erases the peer's tx and rx records, and its watch unless `keep_watch`.
  void drop(sim::NodeId peer, bool keep_watch);

  void on_network(sim::NodeId from, const Payload& payload,
                  const sim::LinkTag& tag);
  void handle_control(sim::NodeId from, TxState* tx, wire::Reader& r);
  void enqueue(sim::NodeId to, Payload payload, bool event);
  /// Assigns the next seq and puts `frame` on the wire.
  void admit(sim::NodeId to, TxState& tx, TxFrame frame);
  /// Admits queued frames while the window (and, for events, credit) has
  /// room: control first, always — the structural priority rule.
  void drain_pending(sim::NodeId to, TxState& tx);
  void grant_credit(sim::NodeId peer, RxState& rx, bool force);
  void transmit(sim::NodeId to, TxState& tx, std::uint64_t seq);
  void advance_ack(sim::NodeId peer, TxState& tx, std::uint32_t session,
                   std::uint64_t cum);
  void reset_stream(sim::NodeId peer, TxState& tx);
  void rx_data(sim::NodeId from, RxState& rx, const Payload& payload,
               const sim::LinkTag& tag);
  void release_in_order(sim::NodeId from);
  void send_nack(sim::NodeId peer, RxState& rx, std::uint64_t missing);
  void arm_ack(sim::NodeId peer, RxState& rx);
  void flush_ack(sim::NodeId peer);
  void arm_retransmit(sim::NodeId peer, TxState& tx);
  void on_retransmit_timer(sim::NodeId peer);
  [[nodiscard]] sim::Time rto(const TxState& tx);
  void heartbeat_tick();
  void handle_nack(sim::NodeId from, TxState& tx, const Nack& nack);
  [[nodiscard]] Payload frame_control(std::uint8_t tag,
                                      const auto& fields) const;

  /// Deterministic jitter added to each RTO: uniform in
  /// [0, rto * permille / 1000], drawn from the manager's seeded Rng.
  static constexpr std::uint32_t kRtoJitterPermille = 250;
  /// Minimum spacing of gap NACKs per peer.
  static constexpr sim::Time kNackMinGap = 8'000;

  sim::NodeId id_;
  sim::Network& network_;
  runtime::Transport& transport_;
  LinkOptions options_;
  util::Rng rng_;
  Deliver deliver_;
  PeerDown peer_down_;
  RetransmitProbe retransmit_probe_;
  bool detached_ = true;
  bool credit_paused_ = false;
  std::uint32_t next_session_ = 1;  // unique per stream this node originates
  std::uint64_t next_nonce_ = 1;
  // The maps own the per-peer records. Their nodes never move, so a record
  // survives the peers a `deliver_` upcall adds; and each map's walk order,
  // which fixes the send order of a heartbeat tick's pings and a credit
  // resume's grants (and with it the Sim's schedule), follows its own
  // inserts and erases alone. `peers_` finds all of a peer's records with
  // one probe; its keys are widened so that every NodeId fits.
  std::unordered_map<sim::NodeId, TxState> tx_;
  std::unordered_map<sim::NodeId, RxState> rx_;
  std::unordered_map<sim::NodeId, WatchState> watches_;
  util::FlatTable<std::uint64_t, PeerRefs> peers_;
  LinkCounters counters_;
  runtime::PeriodicTask heartbeat_;
  // heartbeat_tick's lists, kept so a tick allocates nothing once warm.
  std::vector<sim::NodeId> tick_pings_;
  std::vector<sim::NodeId> tick_dead_;
};

}  // namespace cake::link
