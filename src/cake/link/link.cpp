#include "cake/link/link.hpp"

#include <algorithm>
#include <utility>

namespace cake::link {

void encode_fields(wire::Writer& w, const Ack& m) {
  w.varint(m.session);
  w.varint(m.cum);
}

void encode_fields(wire::Writer& w, const Nack& m) {
  w.varint(m.session);
  w.varint(m.missing);
}

void encode_fields(wire::Writer& w, const Heartbeat& m) {
  w.varint(m.session);
  w.varint(m.nonce);
  w.u8(m.reply ? 1 : 0);
}

void encode_fields(wire::Writer& w, const Credit& m) {
  w.varint(m.session);
  w.varint(m.limit);
}

Ack decode_ack_fields(wire::Reader& r) {
  Ack m;
  m.session = static_cast<std::uint32_t>(r.varint());
  m.cum = r.varint();
  return m;
}

Nack decode_nack_fields(wire::Reader& r) {
  Nack m;
  m.session = static_cast<std::uint32_t>(r.varint());
  m.missing = r.varint();
  return m;
}

Heartbeat decode_heartbeat_fields(wire::Reader& r) {
  Heartbeat m;
  m.session = static_cast<std::uint32_t>(r.varint());
  m.nonce = r.varint();
  m.reply = r.u8() != 0;
  return m;
}

Credit decode_credit_fields(wire::Reader& r) {
  Credit m;
  m.session = static_cast<std::uint32_t>(r.varint());
  m.limit = r.varint();
  return m;
}

LinkCounters& LinkCounters::operator+=(const LinkCounters& o) noexcept {
  data_sent += o.data_sent;
  retransmits += o.retransmits;
  events_shed += o.events_shed;
  duplicates_suppressed += o.duplicates_suppressed;
  reordered_held += o.reordered_held;
  acks_sent += o.acks_sent;
  nacks_sent += o.nacks_sent;
  heartbeats_sent += o.heartbeats_sent;
  peers_declared_dead += o.peers_declared_dead;
  stream_resets += o.stream_resets;
  credits_sent += o.credits_sent;
  credit_stalls += o.credit_stalls;
  return *this;
}

LinkManager::LinkManager(sim::NodeId id, sim::Network& network,
                         runtime::Transport& transport, LinkOptions options,
                         std::uint64_t seed)
    : id_(id),
      network_(network),
      transport_(transport),
      options_(options),
      rng_(seed),
      heartbeat_(transport, options.heartbeat_interval,
                 [this] { heartbeat_tick(); }) {
  // Below 2, an idle-but-healthy peer would be declared dead on its first
  // silent interval before any ping could possibly draw a reply — a
  // guaranteed false positive on every idle link.
  options_.heartbeat_misses = std::max<std::uint32_t>(2, options_.heartbeat_misses);
}

void LinkManager::attach(Deliver deliver) {
  deliver_ = std::move(deliver);
  detached_ = false;
  if (!reliable()) {
    // Best-effort baseline: the manager steps fully aside — untagged sends,
    // plain handler, byte-identical to the pre-link-layer system.
    network_.attach(id_, sim::Network::Handler{deliver_});
    return;
  }
  network_.attach(
      id_, sim::Network::TaggedHandler{
               [this](sim::NodeId from, const Payload& p,
                      const sim::LinkTag& tag) { on_network(from, p, tag); }});
  if (!heartbeat_.running()) heartbeat_.start();
}

void LinkManager::detach() {
  detached_ = true;
  network_.detach(id_);
}

void LinkManager::reset() {
  tx_.clear();
  rx_.clear();
  watches_.clear();
  peers_.clear();
}

LinkManager::TxState& LinkManager::tx_of(sim::NodeId peer) {
  PeerRefs& refs = peers_.try_emplace(peer);
  if (refs.tx == nullptr) refs.tx = &tx_[peer];
  return *refs.tx;
}

LinkManager::RxState& LinkManager::rx_of(sim::NodeId peer) {
  PeerRefs& refs = peers_.try_emplace(peer);
  if (refs.rx == nullptr) refs.rx = &rx_[peer];
  return *refs.rx;
}

LinkManager::WatchState& LinkManager::watch_of(sim::NodeId peer) {
  PeerRefs& refs = peers_.try_emplace(peer);
  if (refs.watch == nullptr) refs.watch = &watches_[peer];
  return *refs.watch;
}

void LinkManager::drop(sim::NodeId peer, bool keep_watch) {
  PeerRefs* refs = peers_.find(peer);
  if (refs == nullptr) return;
  tx_.erase(peer);
  rx_.erase(peer);
  refs->tx = nullptr;
  refs->rx = nullptr;
  if (!keep_watch) {
    watches_.erase(peer);
    refs->watch = nullptr;
  }
  if (refs->watch == nullptr) peers_.erase(peer);
}

void LinkManager::send_control(sim::NodeId to, Payload payload) {
  enqueue(to, std::move(payload), /*event=*/false);
}

void LinkManager::send_event(sim::NodeId to, Payload payload) {
  enqueue(to, std::move(payload), /*event=*/true);
}

void LinkManager::enqueue(sim::NodeId to, Payload payload, bool event) {
  if (!reliable()) {
    network_.send(id_, to, std::move(payload));
    return;
  }
  TxState& tx = tx_of(to);
  if (tx.session == 0) {
    tx.session = next_session_++;
    tx.credit_limit = options_.credit_window;  // implicit initial grant
  }
  if (!event) {
    // Control is never shed and never waits behind events — the queue
    // grows instead, because a lost Subscribe/ReqInsert is a correctness
    // hole the soft-state layer would take whole TTLs to repair.
    if (unacked(tx) < options_.window && tx.pending_ctrl.empty()) {
      admit(to, tx, TxFrame{std::move(payload), false});
      return;
    }
    tx.pending_ctrl.push_back(TxFrame{std::move(payload), false});
    return;
  }
  if (unacked(tx) < options_.window && tx.pending_events.empty() &&
      event_admissible(tx)) {
    admit(to, tx, TxFrame{std::move(payload), true});
    return;
  }
  // Window or credit exhausted: queue behind it, sheddable drop-newest
  // past the queue limit.
  if (tx.pending_events.size() >= options_.queue_limit) {
    ++counters_.events_shed;
    return;
  }
  if (unacked(tx) < options_.window && !event_admissible(tx))
    ++counters_.credit_stalls;
  tx.pending_events.push_back(TxFrame{std::move(payload), true});
}

void LinkManager::drain_pending(sim::NodeId to, TxState& tx) {
  while (unacked(tx) < options_.window) {
    if (!tx.pending_ctrl.empty()) {
      TxFrame frame = std::move(tx.pending_ctrl.front());
      tx.pending_ctrl.pop_front();
      admit(to, tx, std::move(frame));
      continue;
    }
    if (!tx.pending_events.empty() && event_admissible(tx)) {
      TxFrame frame = std::move(tx.pending_events.front());
      tx.pending_events.pop_front();
      admit(to, tx, std::move(frame));
      continue;
    }
    break;
  }
}

void LinkManager::admit(sim::NodeId to, TxState& tx, TxFrame frame) {
  if (tx.window.size() < options_.window) tx.window.resize(options_.window);
  const std::uint64_t seq = tx.next_seq++;
  tx.window[seq % options_.window] = std::move(frame);
  ++counters_.data_sent;
  transmit(to, tx, seq);
  arm_retransmit(to, tx);
}

void LinkManager::transmit(sim::NodeId to, TxState& tx, std::uint64_t seq) {
  sim::LinkTag tag;
  tag.present = true;
  tag.session = tx.session;
  tag.seq = seq;
  // Piggyback the cumulative ack for the reverse stream, if one exists.
  if (RxState* rx = refs(to).rx; rx != nullptr && rx->synced) {
    tag.ack = rx->delivered;
    tag.ack_session = rx->session;
    rx->ack_armed = false;  // the pending standalone ack is covered
  }
  network_.send(id_, to, tx.window[seq % options_.window].payload, tag);
}

void LinkManager::advance_ack(sim::NodeId peer, TxState& tx,
                              std::uint32_t session, std::uint64_t cum) {
  if (session != tx.session || cum <= tx.acked) return;
  if (cum >= tx.next_seq) cum = tx.next_seq - 1;  // never ack the future
  while (tx.acked < cum) {
    ++tx.acked;
    tx.window[tx.acked % options_.window].payload = Payload{};  // recycle
  }
  tx.backoff = 0;
  // Admit queued frames into the freed window (control first, always).
  drain_pending(peer, tx);
  if (unacked(tx) == 0) {
    tx.timer_armed = false;  // dormant closure sees this and dies
  } else {
    tx.rto_deadline = transport_.now() + rto(tx);
  }
}

void LinkManager::reset_stream(sim::NodeId peer, TxState& tx) {
  // The receiver has no state for this stream (it restarted): restart from
  // seq 1 under a fresh session, outstanding frames first, queue after.
  ++counters_.stream_resets;
  std::vector<TxFrame> outstanding;
  outstanding.reserve(unacked(tx) + tx.pending_ctrl.size() +
                      tx.pending_events.size());
  for (std::uint64_t seq = tx.acked + 1; seq < tx.next_seq; ++seq)
    outstanding.push_back(std::move(tx.window[seq % options_.window]));
  for (TxFrame& frame : tx.pending_ctrl) outstanding.push_back(std::move(frame));
  for (TxFrame& frame : tx.pending_events)
    outstanding.push_back(std::move(frame));
  tx.session = next_session_++;
  tx.next_seq = 1;
  tx.acked = 0;
  tx.pending_ctrl.clear();
  tx.pending_events.clear();
  tx.credit_limit = options_.credit_window;  // fresh stream, fresh budget
  tx.backoff = 0;
  tx.timer_armed = false;
  for (TxFrame& frame : outstanding) enqueue(peer, std::move(frame.payload),
                                             frame.event);
}

void LinkManager::redirect(sim::NodeId from, sim::NodeId to) {
  TxState* found = refs(from).tx;
  if (found == nullptr) return;
  TxState tx = std::move(*found);
  drop(from, /*keep_watch=*/true);
  for (std::uint64_t seq = tx.acked + 1; seq < tx.next_seq; ++seq) {
    TxFrame& frame = tx.window[seq % options_.window];
    enqueue(to, std::move(frame.payload), frame.event);
  }
  for (TxFrame& frame : tx.pending_ctrl)
    enqueue(to, std::move(frame.payload), frame.event);
  for (TxFrame& frame : tx.pending_events)
    enqueue(to, std::move(frame.payload), frame.event);
}

void LinkManager::forget(sim::NodeId peer) { drop(peer, /*keep_watch=*/false); }

std::size_t LinkManager::in_flight(sim::NodeId peer) const noexcept {
  const TxState* tx = refs(peer).tx;
  if (tx == nullptr) return 0;
  return unacked(*tx) + tx->pending_ctrl.size() + tx->pending_events.size();
}

std::size_t LinkManager::queued_events(sim::NodeId peer) const noexcept {
  const TxState* tx = refs(peer).tx;
  return tx == nullptr ? 0 : tx->pending_events.size();
}

bool LinkManager::credit_starved(sim::NodeId peer) const noexcept {
  if (!options_.credit) return false;
  const TxState* tx = refs(peer).tx;
  return tx != nullptr && !tx->pending_events.empty() &&
         unacked(*tx) < options_.window && !event_admissible(*tx);
}

std::vector<LinkManager::Payload> LinkManager::take_pending_events(
    sim::NodeId peer) {
  std::vector<Payload> taken;
  TxState* tx = refs(peer).tx;
  if (tx == nullptr) return taken;
  taken.reserve(tx->pending_events.size());
  for (TxFrame& frame : tx->pending_events)
    taken.push_back(std::move(frame.payload));
  tx->pending_events.clear();
  return taken;
}

void LinkManager::set_credit_paused(bool paused) {
  credit_paused_ = paused;
  if (paused || !options_.credit) return;
  for (auto& [peer, rx] : rx_) grant_credit(peer, rx, /*force=*/true);
}

LinkManager::TxMark LinkManager::tx_mark(sim::NodeId peer) const noexcept {
  const TxState* tx = refs(peer).tx;
  if (tx == nullptr) return {};
  // Queued frames have no sequence yet, but every accepted frame will take
  // one of the next queued-count sequences (shedding happens before
  // queueing, so nothing accepted is ever skipped).
  return {tx->session, tx->next_seq - 1 + tx->pending_ctrl.size() +
                           tx->pending_events.size()};
}

bool LinkManager::tx_reached(sim::NodeId peer, TxMark mark) const noexcept {
  if (mark.session == 0) return true;  // empty stream at mark time
  const TxState* tx = refs(peer).tx;
  if (tx == nullptr) return true;  // stream forgotten wholesale
  if (tx->session != mark.session) return false;  // reset since the mark
  return tx->acked >= mark.seq;
}

void LinkManager::on_network(sim::NodeId from, const Payload& payload,
                             const sim::LinkTag& tag) {
  const PeerRefs peer = refs(from);
  if (WatchState* w = peer.watch) {
    w->last_heard = transport_.now();
    w->misses = 0;
    w->dead = false;  // a revived peer speaks for itself
  }
  switch (wire::frame_tag(payload)) {
    case kAckTag:
    case kNackTag:
    case kHeartbeatTag:
    case kCreditTag:
      try {
        wire::Reader r{wire::unframe_once(payload)};
        handle_control(from, peer.tx, r);
      } catch (const wire::WireError&) {
      }
      return;  // link control never reaches the node above
    default: break;
  }
  // The ack below only sends, so `peer` stays valid until deliver_ runs.
  if (tag.present && tag.ack != 0 && peer.tx != nullptr)
    advance_ack(from, *peer.tx, tag.ack_session, tag.ack);
  if (!tag.present || tag.seq == 0) {
    // Untagged traffic from a best-effort peer passes straight through.
    deliver_(from, payload);
    return;
  }
  rx_data(from, peer.rx != nullptr ? *peer.rx : rx_of(from), payload, tag);
}

void LinkManager::handle_control(sim::NodeId from, TxState* tx,
                                 wire::Reader& r) {
  switch (r.u8()) {
    case kAckTag: {
      const Ack ack = decode_ack_fields(r);
      if (tx != nullptr) advance_ack(from, *tx, ack.session, ack.cum);
      return;
    }
    case kNackTag: {
      const Nack nack = decode_nack_fields(r);
      if (tx != nullptr) handle_nack(from, *tx, nack);
      return;
    }
    case kHeartbeatTag: {
      const Heartbeat hb = decode_heartbeat_fields(r);
      if (hb.reply) return;  // pong: arrival already credited the watch
      ++counters_.heartbeats_sent;
      network_.send(id_, from,
                    frame_control(kHeartbeatTag, Heartbeat{0, hb.nonce, true}));
      return;
    }
    case kCreditTag: {
      const Credit credit = decode_credit_fields(r);
      if (tx == nullptr || credit.session != tx->session) return;  // stale
      if (credit.limit <= tx->credit_limit) return;  // reordered / duplicate
      tx->credit_limit = credit.limit;
      drain_pending(from, *tx);
      return;
    }
    default: return;
  }
}

void LinkManager::rx_data(sim::NodeId from, RxState& rx, const Payload& payload,
                          const sim::LinkTag& tag) {
  if (rx.synced && tag.session < rx.session) {
    // A late duplicate from a superseded stream (sessions are monotonic per
    // sender, and survive resets). Adopting it would wipe the live stream's
    // watermark and wedge the link; suppress it instead.
    ++counters_.duplicates_suppressed;
    return;
  }
  if (!rx.synced || rx.session != tag.session) {
    // New stream (first contact, or the peer restarted): adopt it. The old
    // stream's holds die with it — a restart loses in-flight data by design.
    rx.session = tag.session;
    rx.synced = true;
    rx.delivered = 0;
    rx.last_nacked = 0;
    // The sender starts a fresh stream with an implicit credit_window
    // budget; record it so the first explicit grant extends, not repeats.
    rx.credit_granted = options_.credit_window;
    for (HoldSlot& slot : rx.hold) slot = HoldSlot{};
  }
  if (tag.seq <= rx.delivered) {
    ++counters_.duplicates_suppressed;
    arm_ack(from, rx);  // re-ack: our previous ack may have been lost
    return;
  }
  if (tag.seq == rx.delivered + 1) {
    rx.delivered = tag.seq;
    arm_ack(from, rx);
    deliver_(from, payload);
    // The handler above may have touched the maps; re-resolve before
    // draining any held successors.
    release_in_order(from);
    return;
  }
  // Gap: hold the frame for in-order release if it fits the reorder ring.
  if (tag.seq > rx.delivered + hold_capacity()) {
    if (rx.delivered == 0) {
      // Fresh receiver mid-stream (we restarted): ask for a stream restart.
      send_nack(from, rx, 0);
    } else {
      send_nack(from, rx, rx.delivered + 1);
    }
    return;
  }
  if (rx.hold.size() < hold_capacity()) rx.hold.resize(hold_capacity());
  HoldSlot& slot = rx.hold[tag.seq % hold_capacity()];
  if (slot.present && slot.seq == tag.seq) {
    ++counters_.duplicates_suppressed;
  } else {
    slot.payload = payload;
    slot.seq = tag.seq;
    slot.present = true;
    ++counters_.reordered_held;
  }
  // A receiver that has released nothing yet cannot tell a reordered
  // stream start from its own cold restart — but in both cases only a
  // stream restart is safe to ask for: a plain gap NACK here could name a
  // seq the sender already retired, and the sender must never confuse that
  // with a late duplicate NACK (see handle_nack).
  send_nack(from, rx, rx.delivered == 0 ? 0 : rx.delivered + 1);
  arm_ack(from, rx);
}

void LinkManager::release_in_order(sim::NodeId from) {
  for (;;) {
    RxState* found = refs(from).rx;
    if (found == nullptr || found->hold.empty()) return;
    RxState& rx = *found;
    HoldSlot& slot = rx.hold[(rx.delivered + 1) % hold_capacity()];
    if (!slot.present || slot.seq != rx.delivered + 1) return;
    const Payload payload = std::move(slot.payload);
    slot = HoldSlot{};
    ++rx.delivered;
    arm_ack(from, rx);
    deliver_(from, payload);  // may reenter sends; rx reference re-resolved
  }
}

void LinkManager::send_nack(sim::NodeId peer, RxState& rx,
                            std::uint64_t missing) {
  const sim::Time now = transport_.now();
  if (rx.last_nacked == missing &&
      now < rx.last_nack_time + kNackMinGap)
    return;
  rx.last_nacked = missing;
  rx.last_nack_time = now;
  ++counters_.nacks_sent;
  network_.send(id_, peer, frame_control(kNackTag, Nack{rx.session, missing}));
}

void LinkManager::arm_ack(sim::NodeId peer, RxState& rx) {
  // Every release point advance is also a potential credit refresh; the
  // grant has its own quantum check, so calling it here is cheap.
  grant_credit(peer, rx, /*force=*/false);
  if (rx.ack_armed) return;
  rx.ack_armed = true;
  transport_.schedule_background_after(options_.ack_delay,
                                       [this, peer] { flush_ack(peer); });
}

void LinkManager::flush_ack(sim::NodeId peer) {
  if (detached_) return;
  RxState* rx = refs(peer).rx;
  if (rx == nullptr || !rx->ack_armed) return;
  rx->ack_armed = false;
  ++counters_.acks_sent;
  network_.send(id_, peer,
                frame_control(kAckTag, Ack{rx->session, rx->delivered}));
}

void LinkManager::arm_retransmit(sim::NodeId peer, TxState& tx) {
  tx.rto_deadline = transport_.now() + rto(tx);
  if (tx.timer_armed) return;
  tx.timer_armed = true;
  transport_.schedule_background_after(
      tx.rto_deadline - transport_.now(),
      [this, peer] { on_retransmit_timer(peer); });
}

void LinkManager::on_retransmit_timer(sim::NodeId peer) {
  TxState* found = refs(peer).tx;
  if (found == nullptr) return;
  TxState& tx = *found;
  if (!tx.timer_armed) return;
  if (detached_ || unacked(tx) == 0) {
    tx.timer_armed = false;
    return;
  }
  const sim::Time now = transport_.now();
  if (now < tx.rto_deadline) {
    // The deadline moved (an ack arrived); sleep out the remainder.
    transport_.schedule_background_after(
        tx.rto_deadline - now, [this, peer] { on_retransmit_timer(peer); });
    return;
  }
  // Timeout: retransmit the window base, back off, rearm.
  const std::uint64_t base = tx.acked + 1;
  ++counters_.retransmits;
  if (retransmit_probe_)
    retransmit_probe_(peer, tx.window[base % options_.window].payload);
  transmit(peer, tx, base);
  if (tx.backoff < 16) ++tx.backoff;
  tx.rto_deadline = now + rto(tx);
  transport_.schedule_background_after(
      tx.rto_deadline - now, [this, peer] { on_retransmit_timer(peer); });
}

sim::Time LinkManager::rto(const TxState& tx) {
  sim::Time base = options_.rto_initial;
  for (std::uint32_t i = 0; i < tx.backoff && base < options_.rto_max; ++i)
    base *= 2;
  base = std::min(base, options_.rto_max);
  const sim::Time spread = base * kRtoJitterPermille / 1000;
  return base + (spread > 0 ? rng_.below(spread + 1) : 0);
}

void LinkManager::watch(sim::NodeId peer) {
  WatchState& w = watch_of(peer);
  w.watched = true;
  w.dead = false;
  w.misses = 0;
  w.last_heard = transport_.now();  // grace period starts now
  if (reliable() && !heartbeat_.running()) heartbeat_.start();
}

void LinkManager::unwatch(sim::NodeId peer) {
  if (WatchState* w = refs(peer).watch) w->watched = false;
}

bool LinkManager::peer_alive(sim::NodeId peer) const noexcept {
  const WatchState* w = refs(peer).watch;
  return w == nullptr || !w->dead;
}

std::uint32_t LinkManager::heartbeat_misses(sim::NodeId peer) const noexcept {
  const WatchState* w = refs(peer).watch;
  return w == nullptr ? 0 : w->misses;
}

void LinkManager::heartbeat_tick() {
  if (detached_) {
    heartbeat_.stop();
    return;
  }
  const sim::Time now = transport_.now();
  std::vector<sim::NodeId>& ping = tick_pings_;
  std::vector<sim::NodeId>& dead = tick_dead_;
  ping.clear();
  dead.clear();
  for (auto& [peer, w] : watches_) {
    if (!w.watched || w.dead) continue;
    if (now >= w.last_heard + options_.heartbeat_interval) {
      ++w.misses;
      // Every silent interval probes — the threshold-reaching one included,
      // so a false positive gets the fastest possible proof-of-life path
      // (any arrival revives a declared-dead peer).
      ping.push_back(peer);
      if (w.misses >= options_.heartbeat_misses) {
        w.dead = true;
        ++counters_.peers_declared_dead;
        dead.push_back(peer);
      }
    } else {
      w.misses = 0;
    }
  }
  for (const sim::NodeId peer : ping) {
    ++counters_.heartbeats_sent;
    network_.send(
        id_, peer,
        frame_control(kHeartbeatTag, Heartbeat{0, next_nonce_++, false}));
  }
  // Callbacks run last: a peer-down handler may watch/unwatch/forget, which
  // mutates the map this tick just walked.
  for (const sim::NodeId peer : dead) {
    if (peer_down_) peer_down_(peer);
  }
}

void LinkManager::handle_nack(sim::NodeId from, TxState& tx, const Nack& nack) {
  if (nack.session != tx.session) return;  // stale stream
  if (nack.missing == 0) {
    // Explicit resync request: the receiver has no state for this stream
    // (it restarted, or its first glimpse of the stream was mid-flight).
    // Only a fresh stream can unwedge the pair.
    reset_stream(from, tx);
    return;
  }
  if (nack.missing <= tx.acked) {
    // On a live stream our cumulative ack can never outrun the receiver's
    // release point, so a request for an already-acked seq can only be a
    // reordered NACK from the past. Resetting on it would re-deliver
    // everything still in flight under a new session — a duplicate storm
    // the receiver cannot dedup. Blank receivers signal with missing == 0
    // instead, so dropping this on the floor is safe.
    return;
  }
  if (nack.missing > tx.acked && nack.missing < tx.next_seq) {
    ++counters_.retransmits;
    if (retransmit_probe_)
      retransmit_probe_(from,
                        tx.window[nack.missing % options_.window].payload);
    transmit(from, tx, nack.missing);
  }
}

void LinkManager::grant_credit(sim::NodeId peer, RxState& rx, bool force) {
  if (!options_.credit || credit_paused_ || detached_ || !rx.synced) return;
  const std::uint64_t target = rx.delivered + options_.credit_window;
  if (target <= rx.credit_granted) return;
  // Batch grants into half-budget quanta so a fast consumer doesn't turn
  // every release into a control frame; a forced grant (resume after a
  // pause) always goes out.
  if (!force &&
      target - rx.credit_granted < (options_.credit_window + 1) / 2)
    return;
  rx.credit_granted = target;
  ++counters_.credits_sent;
  network_.send(id_, peer,
                frame_control(kCreditTag, Credit{rx.session, target}));
}

LinkManager::Payload LinkManager::frame_control(std::uint8_t tag,
                                                const auto& fields) const {
  wire::Writer w = wire::Writer::pooled();
  w.begin_frame();
  w.u8(tag);
  encode_fields(w, fields);
  return w.end_frame();
}

}  // namespace cake::link
