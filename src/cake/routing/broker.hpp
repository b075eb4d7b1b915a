// Broker node of the multi-stage filtering hierarchy (paper §4).
//
// A broker sits at stage s ≥ 1 (subscribers are stage 0) and keeps a
// filtering table of <weakened filter, child ids, lease> entries. It
// implements, faithfully to Fig. 5(b) and Fig. 6:
//
//   * the subscription covering search: redirect a joining subscriber
//     toward the child already hosting a covering filter, clustering
//     similar subscriptions under one subtree (§4.2);
//   * wildcard placement: subscriptions whose most-general wildcard
//     attribute is used up to stage j attach at stage j+1 instead of
//     overloading a stage-1 node (§4.4, HANDLE-WILDCARD-SUBS);
//   * INSERT-SUBSCRIBER and req-Insert: store the stage-s weakened form,
//     propagate the stage-(s+1) form to the parent;
//   * event filtering and forwarding through a pluggable MatchIndex;
//   * soft-state leases: entries expire 3×TTL after the last renewal;
//     renewal-by-reinsertion runs upward automatically (§4.3), and
//     explicit unsubscription is layered on top as the optional
//     optimization the paper mentions.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cake/health/health.hpp"
#include "cake/index/aggregate.hpp"
#include "cake/journal/journal.hpp"
#include "cake/link/link.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/runtime/background.hpp"
#include "cake/runtime/transport.hpp"
#include "cake/sim/sim.hpp"
#include "cake/trace/trace.hpp"
#include "cake/util/hash.hpp"
#include "cake/util/rng.hpp"
#include "cake/weaken/weaken.hpp"

namespace cake::routing {

/// How a broker routes joining subscribers downward.
enum class Placement {
  CoveringSearch,  ///< Fig. 5: follow covering filters; cluster similar subs
  Random,          ///< locality baseline of §4.2: random descent, no search
};

struct BrokerConfig {
  /// Lease bookkeeping (virtual microseconds). An entry lives for
  /// 3 × `ttl` past its last renewal; renewals run every `renew_interval`;
  /// expired entries are reaped every `reap_interval`.
  sim::Time ttl = 10'000'000;
  sim::Time renew_interval = 5'000'000;
  sim::Time reap_interval = 10'000'000;
  /// Run periodic renewal/reaping tasks (off = static workloads).
  bool auto_renew = true;
  /// §4.4 wildcard placement: attach wildcard subscriptions at stage j+1.
  /// Off = the naive scheme the paper warns about (everything lands at a
  /// stage-1 node, which then receives the whole class's traffic).
  bool wildcard_aware = true;
  /// §3.4's "collapsing subscriptions": submit upward only the antichain
  /// of weakened forms under covering (g1 covers f1 ⇒ only g1 travels).
  /// Sound either way; on = fewer filters and renewals above this node.
  bool covering_collapse = false;
  /// Events buffered per detached durable subscriber before the oldest are
  /// dropped (§2.1 storing events for temporarily disconnected subscribers).
  /// Without a journal the buffer holds the inbound frames themselves.
  std::size_t durable_buffer_limit = 1024;
  /// Matching engine of the filter table. Counting is the indexed default;
  /// `Engine::Naive` is the Fig. 6 linear scan, kept as the reference and
  /// differential oracle (DESIGN.md §9).
  index::Engine engine = index::Engine::Counting;
  /// Online subscription aggregation (DESIGN.md §13). When enabled, the
  /// filter table groups mutually-covered child filters under one merged
  /// entry (their least-general upper bound), a counting index matches the
  /// representatives whatever `engine` says, and the broker re-advertises
  /// the LUB upward instead of every child form. Off = one entry per
  /// filter, byte-identical to the pre-aggregation system.
  index::AggregateConfig aggregate;
  Placement placement = Placement::CoveringSearch;
  /// Link-layer options. BestEffort (the default) keeps every send untagged
  /// and byte-identical to the pre-link-layer system; Reliable turns on
  /// sequencing, retransmission and heartbeat failure detection of the
  /// parent link (DESIGN.md §10).
  link::LinkOptions link;
  /// Zero-match grace pen (0 = off: unmatched events drop immediately, the
  /// classic behavior). After a partition heals, a retransmitted event can
  /// reach a broker moments before the lease renewals that would route it —
  /// forwarding is memoryless, so that race loses the event forever. With a
  /// grace, the broker parks events that match nothing and re-matches them
  /// until the grace expires, closing the heal-time race between event
  /// retransmissions and lease re-establishment. Bounded
  /// (Broker::kMatchGraceLimit frames), drop-oldest.
  sim::Time match_grace = 0;
  /// With a journal attached (set_journal), restart() replays the journaled
  /// event frames through the matcher so a crash loses nothing (DESIGN.md
  /// §12). Off = recover tables and cursors only — the regression knob the
  /// durable chaos oracle uses to prove it detects real event loss.
  bool journal_replay_on_restart = true;
  /// Slow-child quarantine (DESIGN.md §15; off by default). When a child's
  /// link queue of *event* frames sits above `child_queue.high` for
  /// `quarantine_after`, or hits `child_queue.capacity` at all, the broker
  /// stops feeding the link: the queued event frames move into a bounded
  /// per-child pen (drop-oldest, counted) and later forwards park there
  /// too, so one stalled subscriber cannot grow unbounded link state or
  /// starve its siblings' fan-out. A background tick drains the pen back
  /// into the link as the child recovers and lifts the quarantine once the
  /// pen is empty. Control traffic is untouched throughout — leases keep
  /// renewing across the stall.
  bool quarantine = false;
  health::Watermarks child_queue;
  sim::Time quarantine_after = 500'000;
  sim::Time quarantine_drain_interval = 100'000;
  std::size_t quarantine_pen_limit = 1024;
};

/// Counters for LC / RLC / MR (§5.1).
struct BrokerStats {
  std::uint64_t events_received = 0;
  std::uint64_t events_matched = 0;    ///< matched at least one filter
  std::uint64_t events_forwarded = 0;  ///< copies sent to children
  std::uint64_t control_received = 0;  ///< subscription/renewal traffic
  std::uint64_t events_buffered = 0;   ///< held for detached durable subs
  std::uint64_t events_replayed = 0;   ///< flushed on Resume
  std::uint64_t buffer_overflows = 0;  ///< oldest events dropped
  std::uint64_t malformed_packets = 0; ///< corrupt frames dropped
  std::uint64_t reparents = 0;         ///< parent-death re-attachments
  std::uint64_t events_parked = 0;     ///< zero-match events held for grace
  std::uint64_t events_rescued = 0;    ///< parked events matched on retry
  std::uint64_t events_pen_dropped = 0; ///< oldest parked evicted, pen full
  std::uint64_t events_journaled = 0;  ///< frames appended to the journal
  std::uint64_t journal_replays = 0;   ///< records re-driven by restart()
  std::uint64_t events_bounced = 0;    ///< expired pen frames sent to parent
  std::uint64_t expired_notices = 0;   ///< Expired sent to renewing children
  std::uint64_t children_quarantined = 0;   ///< slow-child pens opened
  std::uint64_t events_quarantined = 0;     ///< frames parked in child pens
  std::uint64_t events_quarantine_dropped = 0;  ///< oldest penned evicted
  std::size_t filters = 0;             ///< live distinct filters
  std::size_t associations = 0;        ///< live (filter, child) pairs

  [[nodiscard]] bool operator==(const BrokerStats&) const = default;
};

class Broker {
public:
  Broker(sim::NodeId id, std::size_t stage, sim::Network& network,
         runtime::Transport& transport, const reflect::TypeRegistry& registry,
         BrokerConfig config, util::Rng rng);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Topology wiring; call before start().
  void set_parent(sim::NodeId parent) { parent_ = parent; }
  void add_child(sim::NodeId child) { children_.push_back(child); }

  /// Fallback attachment points, nearest first: [parent, grandparent, …,
  /// root]. Distributed by the overlay at build time. When the failure
  /// detector declares the parent dead, the broker advances along this
  /// chain (wrapping around, so a restarted original parent is eventually
  /// retried) and replays its aggregated filter table at the new parent.
  void set_ancestors(std::vector<sim::NodeId> ancestors) {
    ancestors_ = std::move(ancestors);
    ancestor_idx_ = 0;
  }

  /// Installs the per-event tracer (null = tracing off, the default; the
  /// only cost left on the event path is one null test per EventMsg).
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attaches the durable journal (null = durability off, the default; the
  /// only cost left on the event path is one null test per EventMsg). The
  /// journal must outlive the broker's use of it; after a crash the owner
  /// re-opens a Journal over the same storage (running recovery) and calls
  /// this again before restart().
  void set_journal(journal::Journal* journal) noexcept { journal_ = journal; }

  /// Attaches to the network and schedules the soft-state tasks.
  void start();

  /// Simulates a process failure: detaches from the network and silences
  /// the periodic tasks. No goodbye messages — in-flight traffic to this
  /// node vanishes and children/parent must recover through the soft-state
  /// machinery (§4.3).
  void crash();

  /// Cold restart after crash(): every table (filters, leases, upward
  /// submissions, schemas, durable buffers) is discarded — a real restart
  /// has no disk — then the broker re-attaches and the periodic tasks
  /// resume. Children re-populate it: child brokers renew-by-reinsertion
  /// within one renew interval, and subscribers get `Expired` on their next
  /// renewal and re-run the join protocol.
  void restart();

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  [[nodiscard]] sim::NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t stage() const noexcept { return stage_; }
  [[nodiscard]] sim::NodeId parent() const noexcept { return parent_; }
  [[nodiscard]] bool is_root() const noexcept { return parent_ == sim::kNoNode; }
  [[nodiscard]] const std::vector<sim::NodeId>& children() const noexcept {
    return children_;
  }
  [[nodiscard]] BrokerStats stats() const noexcept;
  /// True while make-before-break is still renewing the previous parent's
  /// leases (a re-parent handover the new parent has not yet acked).
  [[nodiscard]] bool handover_pending() const noexcept {
    return prev_parent_ != sim::kNoNode;
  }
  [[nodiscard]] const link::LinkCounters& link_counters() const noexcept {
    return link_.counters();
  }
  /// The broker's end of its links (tests poke failure-detector state).
  [[nodiscard]] link::LinkManager& link() noexcept { return link_; }

  /// True while `child` is penned as a slow consumer (config_.quarantine).
  [[nodiscard]] bool quarantined(sim::NodeId child) const noexcept {
    const auto it = child_health_.find(child);
    return it != child_health_.end() && it->second.quarantined;
  }
  /// Frames currently parked across every slow-child pen.
  [[nodiscard]] std::size_t quarantine_pen_size() const noexcept {
    std::size_t total = 0;
    for (const auto& [child, ch] : child_health_) total += ch.pen.size();
    return total;
  }
  /// Frames currently parked in any of this broker's pens: the grace pen,
  /// the slow-child pens and the detached-durable buffers.
  [[nodiscard]] std::size_t parked() const noexcept {
    std::size_t total = pen_.size() + quarantine_pen_size();
    for (const auto& [child, buffer] : detached_) total += buffer.size();
    return total;
  }
  /// Frames evicted from `child`'s pen (drop-oldest), attributable to that
  /// child alone — the per-subscriber conservation oracle needs the split
  /// the aggregate stats_ counter cannot provide.
  [[nodiscard]] std::uint64_t quarantine_dropped(sim::NodeId child) const noexcept {
    const auto it = child_health_.find(child);
    return it == child_health_.end() ? 0 : it->second.dropped;
  }

  /// Advertised schema for `type_name`, if any reached this broker.
  [[nodiscard]] const weaken::StageSchema* schema_for(std::string_view type_name) const;

  /// Snapshot of the filtering table (filter, live child ids) for tests.
  [[nodiscard]] std::vector<std::pair<filter::ConjunctiveFilter, std::vector<sim::NodeId>>>
  table() const;

  /// Forms currently submitted upward (the chaos oracle's table-fixpoint
  /// check cross-references these against the parent's table).
  [[nodiscard]] std::vector<filter::ConjunctiveFilter> active_upward() const;

  /// Aggregation counters when this broker merges its table
  /// (config.aggregate.enabled); default-constructed otherwise.
  [[nodiscard]] index::AggregateStats aggregate_stats() const;

  /// The merging index, or nullptr when aggregation is off (tests drive
  /// its structural fixpoint check and re-clustering directly).
  [[nodiscard]] index::AggregatedIndex* aggregated() noexcept { return agg_; }

  /// Weakens `f` for stage `stage` per the advertised schema of its type;
  /// identity when no schema is known (sound fallback).
  [[nodiscard]] filter::ConjunctiveFilter weaken_for(
      const filter::ConjunctiveFilter& f, std::size_t stage) const;

private:
  struct Lease {
    sim::NodeId child = sim::kNoNode;
    sim::Time expires = 0;
    bool durable = false;
  };
  struct Entry {
    filter::ConjunctiveFilter filter;
    filter::ConjunctiveFilter parent_form;  // what we submitted upward
    std::vector<Lease> leases;
  };

  void on_packet(sim::NodeId from, const sim::Network::Payload& payload);
  void handle(Advertise&& msg);
  void handle(Subscribe&& msg);
  void handle(ReqInsert&& msg);
  void handle(Renew&& msg);
  void handle(Unsub&& msg);
  void handle(Expired&&) {}  // subscriber-bound; ignored at brokers
  void handle(Detach&& msg);
  void handle(Resume&& msg);
  // Event frames never reach the Packet decode: on_packet routes them by
  // class to handle_event_frame.
  void handle(EventMsg&&) {}
  // Subscriber-bound messages are ignored if misrouted to a broker.
  void handle(JoinAt&&) {}
  void handle(AcceptedAt&&) {}
  // Link control is consumed below us by the LinkManager; a copy that
  // reaches the routing layer (best-effort peer, fuzzed frame) is noise.
  void handle(Ack&&) {}
  void handle(Nack&&) {}
  void handle(Heartbeat&&) {}
  void handle(Credit&&) {}

  /// The one event path (DESIGN.md §9): decodes the frame once per frame
  /// (`decode_event_once`), journals it, matches, and fans the original
  /// frame out to the matching children. Throws WireError on corruption,
  /// like decode().
  void handle_event_frame(sim::NodeId from, const sim::Network::Payload& payload);
  /// Matches `image` and fills `target_scratch_` with the children holding
  /// a matching lease, sorted and unique. True when there is any.
  bool match_targets(const event::EventImage& image);
  /// Sends `payload` to every child in `target_scratch_`, or buffers it for
  /// a detached durable child.
  void fan_out(const sim::Network::Payload& payload);
  void handle_wildcard(const Subscribe& msg);
  void insert_subscriber(const Subscribe& msg);
  /// Emits this hop's TraceSpan for a traced event (trace_id != 0):
  /// the weakened-match verdict plus the attributes the stage schema
  /// weakened away here — the constraints this broker could not check.
  void emit_trace_span(std::uint64_t trace_id, const event::EventImage& image,
                       sim::NodeId from, bool matched);
  /// Installs/refreshes <filter, child>; propagates upward on new filters.
  void insert_filter(filter::ConjunctiveFilter stored, sim::NodeId child,
                     bool durable = false);
  /// True when `child` holds at least one durable lease here.
  [[nodiscard]] bool has_durable_lease(sim::NodeId child) const;
  /// Replays the journal from `child`'s durable cursor, then retires the
  /// cursor (in memory and in the log). No-op without a cursor.
  void serve_cursor(sim::NodeId child);
  /// Gives `child`'s leases frozen by Detach a fresh 3×TTL expiry.
  void thaw_leases(sim::NodeId child);
  void remove_entry(index::FilterId fid);
  /// Builds (or rebuilds, on restart) the matching engine: the configured
  /// engine directly, or an AggregatedIndex wrapping it when aggregation
  /// is on — in which case `agg_` points at it and its group-lifecycle
  /// listener drives the upward LUB advertisement.
  void build_index();
  /// A merged-entry representative entered/left the inner table: register
  /// or release upward demand for its weakened form. The submitted form is
  /// remembered per representative (agg_forms_) so the later release drops
  /// exactly what was submitted even if the stage schema changed meanwhile.
  void on_group_update(const index::AggregatedIndex::GroupUpdate& update);
  /// Registers/releases demand for a parent-stage form and reconciles the
  /// set actually submitted upward (the covering antichain when
  /// covering_collapse is on, every needed form otherwise).
  void submit_need(const filter::ConjunctiveFilter& parent_form);
  void drop_need(const filter::ConjunctiveFilter& parent_form);
  void resync_active();
  /// Sends a control packet (never an event; see forward_event).
  void send(sim::NodeId to, const Packet& packet);
  void send_join_at(sim::NodeId subscriber, sim::NodeId target, std::uint64_t token);
  [[nodiscard]] sim::NodeId random_child();
  void attach_to_network();
  /// Failure-detector callback: the watched parent missed too many
  /// heartbeats. Re-parents immediately, or schedules the attempt for when
  /// the flap-damping backoff expires.
  void on_parent_down(sim::NodeId peer);
  /// Advances to the next ancestor, re-routes in-flight frames and replays
  /// the aggregated filter table there (renewal-by-reinsertion).
  void do_reparent(std::uint64_t epoch);
  /// Retransmit-probe hook: stamps a Retransmit trace span when a traced
  /// event frame goes out again.
  void on_retransmit(sim::NodeId to, const sim::Network::Payload& payload);
  void renew_task();
  void reap_task();
  /// Parks a zero-match event frame in the grace pen (config_.match_grace).
  void park_unmatched(const sim::Network::Payload& payload);
  /// Re-matches parked frames; forwards rescues, drops expired ones.
  void pen_tick();
  /// Crash recovery (DESIGN.md §12): re-drives every retained journal
  /// record through the matcher. Cursor records rebuild the durable-
  /// subscription cursors; event records re-match against the (still
  /// empty) post-restart table and land in the grace pen until children
  /// re-insert their filters.
  void replay_journal();
  /// Replays journaled event frames with offset >= `from` that match
  /// `child` (late-joiner catch-up and durable-cursor resume). Serves the
  /// frames pass-through, preserving the §9 forward path.
  void replay_range_to(sim::NodeId child, std::uint64_t from);
  void serve_recovery_window(sim::NodeId child);
  bool take_bounce_budget(std::uint64_t event_id);
  /// Single choke point for event fan-out toward one child. Without
  /// quarantine this is exactly `link_.send_event`; with it, frames to a
  /// penned child park instead, and every live send observes the child's
  /// link queue depth to drive the health state machine.
  void forward_event(sim::NodeId target, const sim::Network::Payload& payload);
  struct ChildHealth;
  void observe_child(sim::NodeId target, ChildHealth& ch);
  /// Opens the pen: pulls the queued event frames back out of the link
  /// (control stays) and arms the drain tick.
  void quarantine_child(sim::NodeId target, ChildHealth& ch);
  void park_quarantined(ChildHealth& ch, const sim::Network::Payload& payload);
  /// Paced drain: each tick feeds penned frames back into the link until
  /// its queue reaches the low watermark; lifts the quarantine when the
  /// pen empties.
  void quarantine_tick();

  /// Base damping delay between consecutive re-parent attempts. Each
  /// re-parent in a flap streak doubles it; a quiet spell of 8× this base
  /// forgives the streak. Keeps a flapping parent link from thrashing the
  /// broker up and down its ancestor chain.
  static constexpr sim::Time kReparentBackoff = 250'000;
  /// Grace-pen capacity (config_.match_grace); the oldest frame is evicted
  /// beyond it.
  static constexpr std::size_t kMatchGraceLimit = 1024;
  /// Interval of the background journal sync chore (flush toward storage).
  /// The append itself happens inline — it is a memcpy into the storage
  /// layer — but flushing is deferred off the event path.
  static constexpr sim::Time kJournalSyncInterval = 250'000;

  sim::NodeId id_;
  std::size_t stage_;
  sim::Network& network_;
  runtime::Transport& transport_;
  const reflect::TypeRegistry& registry_;
  BrokerConfig config_;
  util::Rng rng_;
  link::LinkManager link_;

  sim::NodeId parent_ = sim::kNoNode;
  std::vector<sim::NodeId> children_;
  std::vector<sim::NodeId> ancestors_;  // [parent, grandparent, …, root]
  std::size_t ancestor_idx_ = 0;        // current attachment point
  sim::NodeId prev_parent_ = sim::kNoNode;  // renewed until handover acked
  // End of the new parent's tx stream right after the filter table was
  // replayed there (do_reparent); the handover is done once it is acked.
  link::LinkManager::TxMark handover_mark_;
  std::uint32_t reparent_streak_ = 0;   // consecutive recent re-parents
  sim::Time reparent_allowed_at_ = 0;   // flap-damping gate
  sim::Time last_reparent_ = 0;
  trace::Tracer* tracer_ = nullptr;
  bool crashed_ = false;
  std::uint64_t epoch_ = 0;  // crash()/restart() orphan a pending damping check

  journal::Journal* journal_ = nullptr;
  bool replaying_ = false;  // guards against re-journaling replayed frames
  // Post-restart recovery window: while the rebuilt table heals, events can
  // *partially* match (some children re-inserted, some not) and forward past
  // the pen, silently skipping the late child. Each genuinely new lease that
  // lands before recovery_until_ is served the journal range appended since
  // the restart (recovery_offset_), closing that gap.
  std::uint64_t recovery_offset_ = 0;
  sim::Time recovery_until_ = 0;
  // Durable-subscription cursors: journal offset each detached subscriber
  // resumes from. Rebuilt from Cursor records by replay_journal().
  std::unordered_map<sim::NodeId, std::uint64_t> durable_cursor_;
  // Resumes that arrived before the subscriber's durable lease was
  // re-established post-restart; served when the Subscribe lands.
  std::unordered_set<sim::NodeId> pending_resume_;
  // Standing chores. crash() stops them all; start() and restart() start
  // the first three, and the pen and quarantine ticks run only while their
  // pens hold frames.
  runtime::PeriodicTask journal_sync_;
  runtime::PeriodicTask renew_;
  runtime::PeriodicTask reap_;
  runtime::PeriodicTask pen_task_;
  runtime::PeriodicTask quarantine_task_;

  std::unique_ptr<index::MatchIndex> index_;
  index::AggregatedIndex* agg_ = nullptr;  // owned by index_; null when off
  // Upward form submitted per live representative (refcounted: distinct
  // groups can momentarily share a rep). Guarantees submit/drop symmetry
  // for the group-lifecycle listener.
  struct AggForm {
    filter::ConjunctiveFilter form;
    std::size_t count = 0;
  };
  std::unordered_map<filter::ConjunctiveFilter, AggForm> agg_forms_;
  std::unordered_map<index::FilterId, Entry> entries_;
  // entries_[fid] by FilterId (null once removed): match_targets reads a
  // matched id's leases without hashing. Map nodes never move, so the
  // pointers hold until the entry is erased.
  std::vector<const Entry*> entry_at_;
  std::unordered_map<filter::ConjunctiveFilter, index::FilterId> by_filter_;
  std::unordered_map<filter::ConjunctiveFilter, std::size_t> needed_;  // refcounts
  std::unordered_set<filter::ConjunctiveFilter> active_;  // submitted upward
  util::StringMap<weaken::StageSchema> schemas_;
  // Buffered event frames per detached durable subscriber, oldest first
  // (refcounted, like the pens). Always empty with a journal attached: the
  // durable cursor serves the log instead.
  std::unordered_map<sim::NodeId, std::deque<sim::Network::Payload>> detached_;
  // Grace pen: zero-match frames awaiting a table heal, oldest first.
  // Payloads are refcounted, so parking is a pointer bump, not a copy.
  struct Parked {
    sim::Network::Payload payload;
    sim::Time parked_at;
  };
  std::deque<Parked> pen_;
  // Durable recovery bounce (journal mode only): per-event-id count of
  // hand-backs to the parent. A budget (not bounce-once) because the
  // parent can re-match against a lease still pointing at this freshly
  // restarted broker — the frame comes straight back and needs another
  // try once that stale lease reaps (≤ 3×TTL), while a routine weakening
  // false positive burns its budget and drops instead of ping-ponging
  // forever. Bounded FIFO; RAM state, wiped by crash() like any table.
  std::unordered_map<std::uint64_t, std::uint32_t> bounced_;
  std::deque<std::uint64_t> bounced_order_;

  // Slow-child quarantine state (config_.quarantine). One entry per child
  // the fan-out has touched; RAM state, wiped by crash() like any table.
  struct ChildHealth {
    health::QueueHealth health;
    sim::Time above_since = 0;  // 0 = not currently above the high mark
    bool quarantined = false;
    std::uint64_t dropped = 0;  // pen evictions charged to this child
    std::deque<sim::Network::Payload> pen;  // oldest first, refcounted
  };
  std::unordered_map<sim::NodeId, ChildHealth> child_health_;

  BrokerStats stats_;
  index::MatchScratch scratch_;
  std::vector<index::FilterId> match_scratch_;
  std::vector<sim::NodeId> target_scratch_;
};

}  // namespace cake::routing
