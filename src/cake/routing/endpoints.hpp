// User-level endpoints of the overlay: subscribers and publishers
// (paper Fig. 5a and §4.6).
//
// A `SubscriberNode` is a stage-0 process. It runs the join protocol
// (Subscribe → JoinAt* → AcceptedAt), applies its *exact* filters to every
// delivered event — perfect end-to-end filtering, including an optional
// opaque predicate standing in for the paper's stateful closure filters —
// and renews its leases. A `PublisherNode` advertises event classes with
// their G_c schemas and publishes event images to the root.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "cake/journal/journal.hpp"
#include "cake/link/link.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/runtime/background.hpp"
#include "cake/runtime/transport.hpp"
#include "cake/trace/trace.hpp"
#include "cake/util/rng.hpp"
#include "cake/util/stats.hpp"

namespace cake::routing {

/// Counters behind the Matching Rate metric (§5.1).
struct SubscriberStats {
  std::uint64_t events_received = 0;   ///< events reaching this process
  std::uint64_t events_delivered = 0;  ///< events matching ≥ 1 exact filter
  std::uint64_t join_redirects = 0;    ///< JoinAt hops during subscriptions
  std::uint64_t rejoins = 0;           ///< re-subscriptions after Expired
  std::uint64_t malformed_packets = 0; ///< corrupt frames dropped
  std::uint64_t events_stalled = 0;    ///< events parked in the stall inbox
  std::uint64_t stall_inbox_dropped = 0;  ///< oldest parked evicted, inbox full
  std::uint64_t events_stale = 0;  ///< copies behind the dedup window, dropped
  std::uint64_t events_duplicate = 0;  ///< in-window copies seen before, dropped
};

/// Sequence numbers each subscriber's event-id dedup remembers per
/// publisher. An event id is `(publisher << 32) | seq`; a copy whose seq
/// trails that publisher's highest seen seq by this much or more is
/// dropped as stale rather than risk a second delivery.
inline constexpr std::uint32_t kDedupWindow = 1u << 16;

struct SubscriberConfig {
  sim::Time renew_interval = 5'000'000;
  bool auto_renew = true;
  /// Re-run the join protocol when a hosting broker reports `Expired`.
  /// Always on in real deployments; the chaos harness switches it off to
  /// inject a known completeness bug and prove the differential oracle
  /// catches it (a subscriber that ignores Expired silently stops
  /// receiving events after its lease is reaped).
  bool rejoin_on_expired = true;
  /// Link-layer options; Reliable also makes the subscriber heartbeat-watch
  /// its hosting brokers and re-join through the root when one dies.
  link::LinkOptions link;
  /// Attribute merge-induced spurious arrivals (broker aggregation,
  /// DESIGN.md §13): when a spurious event matches *no* hosted weakened
  /// form — the forward was caused by a merged table entry upstream, not
  /// by stage weakening — blame the first *stored* constraint the event
  /// fails, prefixed "⊔", instead of leaving the span unattributed. The
  /// Overlay turns this on automatically when broker aggregation is on.
  bool merge_blame = false;
  /// Events the stall inbox holds while the consumer is stalled (stall()),
  /// before the oldest are dropped and counted. Models the bounded
  /// application-side queue of a consumer whose handler stopped draining.
  std::size_t stall_inbox_limit = 1024;
};

class SubscriberNode {
public:
  /// Called for each event that passed the subscription's exact filter.
  /// It runs inside the node's delivery loop, so it must not subscribe or
  /// unsubscribe on the node that runs it.
  using Handler = std::function<void(const event::EventImage&)>;
  /// Arbitrary end-to-end predicate (the paper's closure filters); may keep
  /// state between calls. Applied after the declarative filter.
  using LocalPredicate = std::function<bool(const event::EventImage&)>;

  SubscriberNode(sim::NodeId id, sim::NodeId root, sim::Network& network,
                 runtime::Transport& transport, const reflect::TypeRegistry& registry,
                 SubscriberConfig config = {});

  SubscriberNode(const SubscriberNode&) = delete;
  SubscriberNode& operator=(const SubscriberNode&) = delete;

  /// Attaches to the network and schedules renewal.
  void start();

  /// Installs the per-event tracer (null = tracing off, the default).
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Starts the join protocol for `exact` (converted to standard form when
  /// its event type is registered, §4.4). Returns a token identifying the
  /// subscription. The handler fires only for events matching the exact
  /// filter and, when given, the local predicate. With `durable`, the
  /// hosting broker buffers matching events across detach()/resume().
  /// `replay_from` (against a journal-backed broker) asks the accepting
  /// broker to replay matching journaled events from that log offset —
  /// late-joiner catch-up; kNoReplay requests none. The request rides only
  /// the initial join: renewals and rejoins never re-request it.
  std::uint64_t subscribe(filter::ConjunctiveFilter exact, Handler handler,
                          LocalPredicate local = {}, bool durable = false,
                          std::uint64_t replay_from = kNoReplay);

  /// Disjunctive (composite) subscription: one logical subscription whose
  /// interest is the OR of `disjuncts`. Each disjunct is routed through the
  /// overlay independently (joining wherever its covering search leads),
  /// but the handler fires at most once per event, however many disjuncts
  /// match. Returns the tokens of the member subscriptions (unsubscribe
  /// each to drop the composite).
  std::vector<std::uint64_t> subscribe_any(
      std::vector<filter::ConjunctiveFilter> disjuncts, Handler handler,
      LocalPredicate local = {}, bool durable = false);

  /// Announces a planned disconnection to every hosting broker (durable
  /// subscriptions keep accumulating events there), goes offline (the
  /// network drops anything sent here) and pauses renewals.
  void detach();

  /// Reconnects: re-attaches to the network, hosting brokers replay
  /// buffered events, renewals resume.
  void resume();

  [[nodiscard]] bool detached() const noexcept { return detached_; }

  /// Simulates a process failure: detaches from the network and silences
  /// every periodic task. No goodbye messages — exactly the case the
  /// soft-state design (§4.3) must clean up after.
  void halt();

  [[nodiscard]] bool halted() const noexcept { return halted_; }

  /// Simulates a stalled consumer (DESIGN.md §15): the process stays up —
  /// renewals, joins and link ACKs all keep running, so its leases never
  /// expire — but the application stops draining events. Arriving event
  /// frames park in a bounded inbox (drop-oldest, counted) and the link
  /// stops granting receive credit, so upstream senders exhaust their
  /// budget and the hosting broker's slow-child detector takes over.
  void stall();

  /// Ends the stall: credit grants resume and the parked inbox drains
  /// through the normal delivery path (dedup, handlers, latency stats).
  void unstall();

  [[nodiscard]] bool stalled() const noexcept { return stalled_; }
  /// Event frames parked in the stall inbox, awaiting unstall().
  [[nodiscard]] std::size_t parked() const noexcept {
    return stall_inbox_.size();
  }

  /// Explicit unsubscription (§4.3 optimization); stops renewals either way.
  void unsubscribe(std::uint64_t token);

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] const SubscriberStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const link::LinkCounters& link_counters() const noexcept {
    return link_.counters();
  }
  /// This node's end of its links (tests poke failure-detector state).
  [[nodiscard]] link::LinkManager& link() noexcept { return link_; }
  /// Publish-to-delivery virtual latency of events this process accepted.
  [[nodiscard]] const util::RunningStats& delivery_latency() const noexcept {
    return latency_;
  }
  /// Node the subscription was accepted at, if the handshake completed.
  [[nodiscard]] std::optional<sim::NodeId> accepted_at(std::uint64_t token) const;
  [[nodiscard]] std::size_t subscriptions() const noexcept { return subs_.size(); }

  /// One row per live subscription, for the chaos oracle's table-fixpoint
  /// check: it cross-references (parent, stored) against broker tables.
  struct SubscriptionView {
    std::uint64_t token = 0;
    std::optional<sim::NodeId> parent;
    filter::ConjunctiveFilter stored;  // weakened form held at `parent`
    filter::ConjunctiveFilter exact;
  };
  [[nodiscard]] std::vector<SubscriptionView> subscription_views() const;

private:
  struct Sub {
    std::uint64_t token = 0;
    filter::ConjunctiveFilter exact;
    Handler handler;
    LocalPredicate local;
    bool durable = false;
    std::uint64_t group = 0;  // non-zero: member of a composite subscription
    std::optional<sim::NodeId> parent;           // set by AcceptedAt
    filter::ConjunctiveFilter stored_at_parent;  // weakened form, for renewals
    // Pending replay-from-offset request; cleared once a join is accepted
    // (the broker served it), so retries cannot double-replay.
    std::uint64_t replay_from = kNoReplay;
  };

  /// The live subscription holding `token`, or null (binary search).
  [[nodiscard]] Sub* find_sub(std::uint64_t token) noexcept;
  [[nodiscard]] const Sub* find_sub(std::uint64_t token) const noexcept;
  /// Distinct nodes currently hosting at least one accepted subscription.
  [[nodiscard]] std::vector<sim::NodeId> hosting_nodes() const;

  void on_packet(sim::NodeId from, const sim::Network::Payload& payload);
  /// Event-id dedup: true for the first copy of `event_id`. A repeat inside
  /// its publisher's window is false; so is a copy older than the window,
  /// which is also counted in `events_stale`.
  bool first_copy(std::uint64_t event_id);
  /// Runs the exact filters, local predicates and handlers over one event
  /// (`decode_event_once`'s memo, shared with every other receiver).
  void deliver_event(sim::NodeId from, const EventMsg& ev);
  void attach_to_network();
  /// Aligns the failure-detector watch set with hosting_nodes().
  void sync_watches();
  /// A watched hosting broker went silent: drop its dead stream and re-run
  /// the join protocol for the subscriptions it hosted.
  void on_broker_down(sim::NodeId peer);
  void renew_task();
  void send(sim::NodeId to, const Packet& packet);
  /// Emits the stage-0 exact-verdict span for a traced event. On a
  /// spurious arrival the span carries the blame list: per culpable
  /// subscription (its weakened form matched, so it caused the forward),
  /// the first exact constraint the event fails — i.e. which weakened
  /// attribute produced this false positive.
  void emit_trace_span(const EventMsg& msg, sim::NodeId from, bool delivered);

  sim::NodeId id_;
  sim::NodeId root_;
  sim::Network& network_;
  runtime::Transport& transport_;
  const reflect::TypeRegistry& registry_;
  SubscriberConfig config_;
  link::LinkManager link_;
  std::unordered_set<sim::NodeId> watched_;  // brokers under heartbeat watch
  // Hosts declared dead by the failure detector. Their leases are kept
  // renewed (make-before-break) until a replacement home is confirmed, but
  // they are not re-watched; any packet from one revives it.
  std::unordered_set<sim::NodeId> dead_hosts_;
  // Live subscriptions in ascending token order. Tokens only grow, so a
  // subscribe appends; the exact stage walks this contiguous table once per
  // arrival.
  std::vector<Sub> subs_;
  // filter::signature of each subs_[i].exact, index for index: the exact
  // stage's prefilter reads this contiguous array, not the Subs themselves.
  std::vector<std::uint64_t> sigs_;
  runtime::PeriodicTask renew_;
  // One publisher's dedup window: its highest seq seen, and a ring of
  // kDedupWindow bits indexed by seq mod kDedupWindow covering the seqs
  // (high - kDedupWindow, high].
  struct SeqWindow {
    std::uint32_t publisher = 0;
    std::uint32_t high = 0;
    std::vector<std::uint64_t> seen;
  };
  // One window per publisher heard from, in first-heard order.
  std::vector<SeqWindow> windows_;
  std::uint64_t next_token_ = 1;
  std::uint64_t next_group_ = 1;
  bool detached_ = false;
  bool halted_ = false;
  bool stalled_ = false;
  // Event frames parked while stalled, oldest first, with their sender
  // (the drain re-enters on_packet, which needs `from` for tracing).
  std::deque<std::pair<sim::NodeId, sim::Network::Payload>> stall_inbox_;
  trace::Tracer* tracer_ = nullptr;
  SubscriberStats stats_;
  util::RunningStats latency_;
};

struct PublisherStats {
  std::uint64_t events_published = 0;
};

class PublisherNode {
public:
  PublisherNode(sim::NodeId id, sim::NodeId root, sim::Network& network,
                runtime::Transport& transport, link::LinkOptions link = {});

  PublisherNode(const PublisherNode&) = delete;
  PublisherNode& operator=(const PublisherNode&) = delete;

  /// Announces an event class and its attribute-stage association G_c.
  void advertise(weaken::StageSchema schema);

  /// Installs the per-event tracer (null = tracing off, the default).
  /// Sampling is decided here, once per event: the publisher stamps the
  /// trace id and every downstream hop just propagates it.
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Recorder tap (tools/cake_replay): every published frame is also
  /// appended to `journal`, capturing the workload for deterministic
  /// replay. Null = off, the default. The journal must outlive the tap.
  void set_record_journal(journal::Journal* journal) noexcept {
    record_journal_ = journal;
  }

  /// Publishes a typed event, encoded straight from its reflection getters
  /// (the user never marshals, and no image is built). Returns the event id
  /// carried on the wire (and used as the trace id when the event is
  /// sampled).
  std::uint64_t publish(const event::Event& event);

  /// Publishes a pre-built image (workload generators). The frame is
  /// byte-identical to publishing the event the image was taken from.
  std::uint64_t publish(event::EventImage image);

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] const PublisherStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const link::LinkCounters& link_counters() const noexcept {
    return link_.counters();
  }

private:
  /// The tail both publish overloads share: event id, trace span, the
  /// frame `encode(published_at, event_id, trace_id)` returns, recorder
  /// tap and send.
  template <class Encode>
  std::uint64_t publish_with(Encode&& encode);

  sim::NodeId id_;
  sim::NodeId root_;
  sim::Network& network_;
  runtime::Transport& transport_;
  link::LinkManager link_;
  trace::Tracer* tracer_ = nullptr;
  journal::Journal* record_journal_ = nullptr;
  std::uint64_t next_seq_ = 0;
  PublisherStats stats_;
};

}  // namespace cake::routing
