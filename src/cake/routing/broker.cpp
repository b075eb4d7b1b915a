#include "cake/routing/broker.hpp"

#include <algorithm>
#include <limits>

namespace cake::routing {

Broker::Broker(sim::NodeId id, std::size_t stage, sim::Network& network,
               runtime::Transport& transport, const reflect::TypeRegistry& registry,
               BrokerConfig config, util::Rng rng)
    : id_(id),
      stage_(stage),
      network_(network),
      transport_(transport),
      registry_(registry),
      config_(config),
      rng_(rng),
      // The link manager draws its retransmit jitter from its own stream,
      // derived from the node id alone: pulling a seed out of `rng_` here
      // would shift the placement stream and change best-effort runs.
      link_(id, network, transport, config.link,
            (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL),
      journal_sync_(transport, kJournalSyncInterval,
                    [this] { journal_->sync(); }),
      renew_(transport, config.renew_interval, [this] { renew_task(); }),
      reap_(transport, config.reap_interval, [this] { reap_task(); }),
      pen_task_(transport, config.match_grace / 4, [this] { pen_tick(); }),
      quarantine_task_(transport, config.quarantine_drain_interval,
                       [this] { quarantine_tick(); }) {
  if (stage_ == 0)
    throw std::invalid_argument{"Broker: stage 0 is the subscriber level"};
  build_index();
}

void Broker::build_index() {
  if (config_.aggregate.enabled) {
    auto aggregated =
        std::make_unique<index::AggregatedIndex>(config_.aggregate, registry_);
    agg_ = aggregated.get();
    aggregated->set_listener(
        [this](const index::AggregatedIndex::GroupUpdate& update) {
          on_group_update(update);
        });
    index_ = std::move(aggregated);
  } else {
    agg_ = nullptr;
    index_ = index::make_index(config_.engine, registry_);
  }
}

void Broker::on_group_update(const index::AggregatedIndex::GroupUpdate& update) {
  // Submit before drop: a representative swap whose weakened forms coincide
  // must not transiently unsubscribe the form upward.
  if (update.added != nullptr) {
    AggForm& slot = agg_forms_[*update.added];
    if (slot.count++ == 0) slot.form = weaken_for(*update.added, stage_ + 1);
    submit_need(slot.form);
  }
  if (update.removed != nullptr) {
    const auto it = agg_forms_.find(*update.removed);
    if (it == agg_forms_.end()) return;  // restart raced the retirement
    drop_need(it->second.form);
    if (--it->second.count == 0) agg_forms_.erase(it);
  }
}

void Broker::start() {
  attach_to_network();
  // Journal flushing is a background chore, never an event-path cost.
  if (journal_ != nullptr) journal_sync_.start();
  if (!config_.auto_renew) return;
  renew_.start();
  reap_.start();
}

void Broker::attach_to_network() {
  link_.attach([this](sim::NodeId from, const sim::Network::Payload& p) {
    on_packet(from, p);
  });
  if (!link_.reliable()) return;
  link_.set_peer_down([this](sim::NodeId peer) { on_parent_down(peer); });
  link_.set_retransmit_probe(
      [this](sim::NodeId to, const sim::Network::Payload& p) {
        on_retransmit(to, p);
      });
  // The broker watches only its parent: child brokers renew through us and
  // repair themselves, and watching subscribers would evict durable
  // detachers. Subscribers watch their hosting broker from their own end.
  if (parent_ != sim::kNoNode) link_.watch(parent_);
}

void Broker::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;  // orphan a pending re-parent damping check
  prev_parent_ = sim::kNoNode;
  handover_mark_ = {};
  pen_.clear();
  bounced_.clear();
  bounced_order_.clear();
  child_health_.clear();
  journal_sync_.stop();
  renew_.stop();
  reap_.stop();
  pen_task_.stop();
  quarantine_task_.stop();
  link_.detach();
}

void Broker::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  prev_parent_ = sim::kNoNode;
  handover_mark_ = {};
  pen_.clear();
  child_health_.clear();
  entries_.clear();
  entry_at_.clear();
  by_filter_.clear();
  needed_.clear();
  active_.clear();
  agg_forms_.clear();
  schemas_.clear();
  detached_.clear();
  durable_cursor_.clear();
  pending_resume_.clear();
  build_index();
  link_.reset();  // fresh sessions; peers discard the dead streams on contact
  start();
  // The soft state above is gone for good — a real restart has no memory —
  // but with a journal attached the *events* are not: re-drive them so the
  // crash window loses nothing (DESIGN.md §12).
  if (journal_ != nullptr && config_.journal_replay_on_restart) {
    replay_journal();
    // Arm the recovery window: leases re-inserted while the table heals are
    // served the journal range appended after this point (see insert_filter).
    recovery_offset_ = journal_->next_offset();
    recovery_until_ =
        transport_.now() + 3 * config_.ttl + 2 * config_.match_grace;
  }
}

BrokerStats Broker::stats() const noexcept {
  BrokerStats s = stats_;
  s.filters = entries_.size();
  s.associations = 0;
  for (const auto& [fid, entry] : entries_) s.associations += entry.leases.size();
  return s;
}

index::AggregateStats Broker::aggregate_stats() const {
  return agg_ != nullptr ? agg_->stats() : index::AggregateStats{};
}

const weaken::StageSchema* Broker::schema_for(std::string_view type_name) const {
  const auto it = schemas_.find(type_name);  // transparent: no key copy
  return it == schemas_.end() ? nullptr : &it->second;
}

std::vector<std::pair<filter::ConjunctiveFilter, std::vector<sim::NodeId>>>
Broker::table() const {
  std::vector<std::pair<filter::ConjunctiveFilter, std::vector<sim::NodeId>>> rows;
  rows.reserve(entries_.size());
  for (const auto& [fid, entry] : entries_) {
    std::vector<sim::NodeId> ids;
    ids.reserve(entry.leases.size());
    for (const auto& lease : entry.leases) ids.push_back(lease.child);
    rows.emplace_back(entry.filter, std::move(ids));
  }
  return rows;
}

std::vector<filter::ConjunctiveFilter> Broker::active_upward() const {
  return {active_.begin(), active_.end()};
}

filter::ConjunctiveFilter Broker::weaken_for(const filter::ConjunctiveFilter& f,
                                             std::size_t stage) const {
  const weaken::StageSchema* schema = schema_for(f.type().name.text);
  if (schema == nullptr) return f;  // no advertisement yet: sound identity
  return weaken::weaken_filter(f, *schema, stage);
}

void Broker::on_packet(sim::NodeId from, const sim::Network::Payload& payload) {
  if (packet_class(payload) == kEventPacketClass) {
    // Events skip the Packet variant: each frame is decoded once, by its
    // first receiver, and matched from that memo (DESIGN.md §9).
    try {
      handle_event_frame(from, payload);
    } catch (const wire::WireError&) {
      ++stats_.malformed_packets;
    }
    return;
  }
  Packet packet;
  try {
    packet = decode_once(payload);
  } catch (const wire::WireError&) {
    ++stats_.malformed_packets;  // corrupt frame: drop, never crash a node
    return;
  }
  ++stats_.control_received;
  std::visit([this](auto&& msg) { handle(std::move(msg)); }, std::move(packet));
}

void Broker::handle(Advertise&& msg) {
  // Flood the schema down so every broker can weaken mechanically (§4.1).
  for (const sim::NodeId child : children_)
    send(child, Advertise{msg.schema});
  schemas_.insert_or_assign(msg.schema.type_name(), std::move(msg.schema));
}

void Broker::handle(Subscribe&& msg) {
  if (config_.placement == Placement::Random) {
    // §4.2 locality baseline: no covering search, walk a random path down.
    if (stage_ == 1 || children_.empty()) {
      insert_subscriber(msg);
    } else {
      send_join_at(msg.subscriber, random_child(), msg.token);
    }
    return;
  }

  if (stage_ == 1 || children_.empty()) {
    insert_subscriber(msg);
    return;
  }

  // Covering search (Fig. 5b): redirect toward the child already hosting a
  // covering filter, so similar subscriptions share a path.
  for (const auto& [fid, entry] : entries_) {
    if (!covers(entry.filter, msg.filter, registry_)) continue;
    // Redirect only toward broker children; a subscriber lease on this
    // entry means the similar subscription lives right here.
    for (const auto& lease : entry.leases) {
      if (std::find(children_.begin(), children_.end(), lease.child) !=
          children_.end()) {
        send_join_at(msg.subscriber, lease.child, msg.token);
        return;
      }
    }
    insert_subscriber(msg);
    return;
  }

  if (config_.wildcard_aware && msg.filter.has_wildcard()) {
    handle_wildcard(msg);
    return;
  }

  send_join_at(msg.subscriber, random_child(), msg.token);
}

void Broker::handle_wildcard(const Subscribe& msg) {
  // §4.4: find the most general wildcard attribute (first in standard-form
  // order), then the topmost stage j still using it; attach at stage j+1.
  const std::vector<std::string> wildcards = msg.filter.wildcard_attributes();
  const weaken::StageSchema* schema = schema_for(msg.filter.type().name.text);
  std::size_t topmost = 0;
  if (schema != nullptr && !wildcards.empty()) {
    const std::string& most_general = wildcards.front();
    for (std::size_t s = 0; s < schema->stages(); ++s) {
      const auto& attrs = schema->attributes_at(s);
      if (std::find(attrs.begin(), attrs.end(), most_general) != attrs.end())
        topmost = s;
    }
  }
  if (stage_ <= topmost + 1) {
    insert_subscriber(msg);  // we are at (or capped above) stage j+1
  } else {
    send_join_at(msg.subscriber, random_child(), msg.token);
  }
}

void Broker::insert_subscriber(const Subscribe& msg) {
  filter::ConjunctiveFilter stored = weaken_for(msg.filter, stage_);
  insert_filter(stored, msg.subscriber, msg.durable);
  send(msg.subscriber, AcceptedAt{id_, msg.token, std::move(stored)});
  if (journal_ == nullptr) return;
  // Late-joiner catch-up: replay the journal tail the subscriber asked for.
  if (msg.replay_from != kNoReplay)
    replay_range_to(msg.subscriber, msg.replay_from);
  // A Resume that beat this durable re-join (post-restart) is served now
  // that the lease exists and the replay can match.
  if (msg.durable && pending_resume_.erase(msg.subscriber) > 0)
    serve_cursor(msg.subscriber);
}

void Broker::insert_filter(filter::ConjunctiveFilter stored, sim::NodeId child,
                           bool durable) {
  const sim::Time expires = transport_.now() + 3 * config_.ttl;
  if (const auto it = by_filter_.find(stored); it != by_filter_.end()) {
    Entry& entry = entries_.at(it->second);
    for (auto& lease : entry.leases) {
      if (lease.child == child) {
        lease.expires = expires;  // renewal-by-reinsertion
        lease.durable = lease.durable || durable;
        return;
      }
    }
    entry.leases.push_back({child, expires, durable});
    serve_recovery_window(child);
    return;
  }

  Entry entry;
  entry.filter = stored;
  entry.parent_form = weaken_for(stored, stage_ + 1);
  entry.leases.push_back({child, expires, durable});
  // With aggregation on, add() fires the group listener, which submits the
  // merged representative's form upward — the per-entry form stays local.
  const index::FilterId fid = index_->add(stored);
  by_filter_.emplace(std::move(stored), fid);

  if (agg_ == nullptr) submit_need(entry.parent_form);
  const Entry& stored_entry = entries_.emplace(fid, std::move(entry)).first->second;
  if (entry_at_.size() <= fid) entry_at_.resize(fid + 1, nullptr);
  entry_at_[fid] = &stored_entry;
  serve_recovery_window(child);
}

void Broker::serve_recovery_window(sim::NodeId child) {
  // A lease that lands while the post-restart table is still healing may
  // have missed events that *partially* matched (forwarded to already
  // re-inserted children, skipped this one, never parked). Re-serve the
  // journal range appended since the restart; replay_range_to re-matches
  // each record against the now-updated table and only sends hits, and the
  // subscriber-side event-id dedup absorbs anything already delivered.
  if (journal_ == nullptr || replaying_) return;
  if (transport_.now() >= recovery_until_) return;
  replay_range_to(child, recovery_offset_);
}

void Broker::handle(ReqInsert&& msg) {
  insert_filter(std::move(msg.filter), msg.child);
}

void Broker::handle(Renew&& msg) {
  const auto it = by_filter_.find(msg.filter);
  if (it == by_filter_.end()) {
    // The lease was reaped (lost renewals, partition): tell the child so it
    // can re-run the join protocol instead of renewing into the void.
    ++stats_.expired_notices;
    send(msg.child, Expired{std::move(msg.filter)});
    return;
  }
  Entry& entry = entries_.at(it->second);
  bool found = false;
  for (auto& lease : entry.leases) {
    if (lease.child == msg.child) {
      lease.expires = transport_.now() + 3 * config_.ttl;
      found = true;
    }
  }
  if (!found) {
    ++stats_.expired_notices;
    send(msg.child, Expired{std::move(msg.filter)});
  }
}

void Broker::handle(Unsub&& msg) {
  const auto it = by_filter_.find(msg.filter);
  if (it == by_filter_.end()) return;
  Entry& entry = entries_.at(it->second);
  std::erase_if(entry.leases,
                [&](const Lease& lease) { return lease.child == msg.child; });
  if (entry.leases.empty()) remove_entry(it->second);
}

void Broker::handle(Detach&& msg) {
  if (!has_durable_lease(msg.child)) return;  // nothing durable: ignore
  detached_.try_emplace(msg.child);
  if (journal_ != nullptr) {
    // Durable cursor: the subscriber resumes from the log position at the
    // moment it detached. Persisted as a Cursor record so the position
    // itself survives a broker crash (rebuilt by replay_journal).
    const std::uint64_t at = journal_->next_offset();
    durable_cursor_[msg.child] = at;
    journal_->append_cursor(msg.child, at);
  }
  // Freeze the durable leases: a detached durable subscriber must survive
  // missing its renewals.
  for (auto& [fid, entry] : entries_) {
    for (auto& lease : entry.leases) {
      if (lease.child == msg.child && lease.durable)
        lease.expires = std::numeric_limits<sim::Time>::max();
    }
  }
}

void Broker::handle(Resume&& msg) {
  if (journal_ != nullptr && durable_cursor_.contains(msg.child)) {
    if (!has_durable_lease(msg.child)) {
      // Post-restart race: the cursor survived the crash but the lease
      // table did not, and this subscriber has not re-joined yet. Serve
      // the replay when its durable Subscribe lands (insert_subscriber).
      pending_resume_.insert(msg.child);
      return;
    }
    serve_cursor(msg.child);
    thaw_leases(msg.child);
    return;
  }
  const auto it = detached_.find(msg.child);
  if (it == detached_.end()) return;
  // The buffered frames are the publisher's bytes, so the subscriber sees
  // the original event ids and publish stamps, exactly as if forwarded live.
  const std::deque<sim::Network::Payload> backlog = std::move(it->second);
  detached_.erase(it);
  for (const sim::Network::Payload& payload : backlog) {
    forward_event(msg.child, payload);
    ++stats_.events_replayed;
  }
  thaw_leases(msg.child);
}

void Broker::serve_cursor(sim::NodeId child) {
  const auto cur = durable_cursor_.find(child);
  if (cur == durable_cursor_.end()) return;
  detached_.erase(child);
  replay_range_to(child, cur->second);
  journal_->append_cursor_clear(child);
  durable_cursor_.erase(cur);
}

void Broker::thaw_leases(sim::NodeId child) {
  const sim::Time expires = transport_.now() + 3 * config_.ttl;
  for (auto& [fid, entry] : entries_) {
    for (auto& lease : entry.leases) {
      if (lease.child == child &&
          lease.expires == std::numeric_limits<sim::Time>::max())
        lease.expires = expires;
    }
  }
}

bool Broker::has_durable_lease(sim::NodeId child) const {
  for (const auto& [fid, entry] : entries_) {
    for (const auto& lease : entry.leases) {
      if (lease.child == child && lease.durable) return true;
    }
  }
  return false;
}

bool Broker::match_targets(const event::EventImage& image) {
  index_->match(image, match_scratch_, scratch_);
  target_scratch_.clear();
  for (const index::FilterId fid : match_scratch_) {
    for (const auto& lease : entry_at_[fid]->leases)
      target_scratch_.push_back(lease.child);
  }
  std::sort(target_scratch_.begin(), target_scratch_.end());
  target_scratch_.erase(
      std::unique(target_scratch_.begin(), target_scratch_.end()),
      target_scratch_.end());
  return !target_scratch_.empty();
}

void Broker::fan_out(const sim::Network::Payload& payload) {
  ++stats_.events_matched;
  for (const sim::NodeId target : target_scratch_) {
    if (const auto buffer = detached_.find(target); buffer != detached_.end()) {
      // With a journal the frame is already logged and the detached
      // subscriber's cursor replay serves it on Resume. Without one the
      // buffer keeps the frame itself — a refcount, not a copy.
      if (journal_ == nullptr &&
          !health::push_bounded(buffer->second, config_.durable_buffer_limit,
                                payload))
        ++stats_.buffer_overflows;
      ++stats_.events_buffered;
      continue;
    }
    forward_event(target, payload);  // refcount copy, zero bytes moved
    ++stats_.events_forwarded;
  }
}

void Broker::handle_event_frame(sim::NodeId from,
                                const sim::Network::Payload& payload) {
  // The image lives as long as `payload`, which the caller holds throughout.
  const EventMsg& ev = decode_event_once(payload);

  // Journal the inbound frame *before* matching: the bytes already exist
  // (refcounted frame), so durability is one append of them — and a crash
  // at any later point of this function can lose nothing. Corrupt frames
  // threw above and never reach the log.
  if (journal_ != nullptr && !replaying_) {
    journal_->append_event(payload);
    ++stats_.events_journaled;
  }

  ++stats_.events_received;
  const bool matched = match_targets(ev.image);
  if (tracer_ != nullptr && ev.trace_id != 0)
    emit_trace_span(ev.trace_id, ev.image, from, matched);
  if (!matched) {
    if (config_.match_grace > 0) park_unmatched(payload);
    return;
  }
  fan_out(payload);
  // Recovery-window relay: a restarted broker's table can be *permanently*
  // missing leases for subscribers that re-homed elsewhere while it was
  // down — a frame that partially matches here forwards past the pen and
  // silently skips them. While the window is open, hand a copy back to the
  // parent to re-match against a healthy table; subscriber dedup absorbs
  // the paths that already delivered, and the shared bounce budget stops a
  // stale parent lease from ping-ponging the frame.
  if (journal_ != nullptr && !replaying_ && parent_ != sim::kNoNode &&
      transport_.now() < recovery_until_ && take_bounce_budget(ev.event_id))
    link_.send_event(parent_, payload);
}

void Broker::emit_trace_span(std::uint64_t trace_id,
                             const event::EventImage& image, sim::NodeId from,
                             bool matched) {
  trace::TraceSpan span;
  span.trace_id = trace_id;
  span.kind = trace::SpanKind::Broker;
  span.node = id_;
  span.from = from;
  span.stage = stage_;
  span.filters_evaluated = index_->size();
  span.matched = matched;
  span.ticks = transport_.now();
  // The attributes this stage's schema weakened away: present in the event
  // (stage-0 set) but absent from A_stage — exactly the constraints this
  // broker could not check, i.e. the only possible sources of a spurious
  // forward (Proposition 1).
  if (const weaken::StageSchema* schema = schema_for(image.type_name())) {
    const std::vector<std::string>& kept = schema->attributes_at(stage_);
    for (const std::string& attr : schema->attributes_at(0)) {
      if (std::find(kept.begin(), kept.end(), attr) == kept.end() &&
          image.has(attr))
        span.weakened_attrs_hit.push_back(attr);
    }
  }
  tracer_->emit(std::move(span));
}

void Broker::remove_entry(index::FilterId fid) {
  const auto it = entries_.find(fid);
  if (it == entries_.end()) return;
  // With aggregation, remove() un-merges: the group listener releases the
  // retired (or re-derived) representative's upward form.
  index_->remove(fid);
  by_filter_.erase(it->second.filter);
  if (agg_ == nullptr) drop_need(it->second.parent_form);
  entries_.erase(it);
  entry_at_[fid] = nullptr;
}

void Broker::submit_need(const filter::ConjunctiveFilter& parent_form) {
  if (parent_ == sim::kNoNode) return;
  if (++needed_[parent_form] > 1) return;  // demand already registered
  resync_active();
}

void Broker::drop_need(const filter::ConjunctiveFilter& parent_form) {
  if (parent_ == sim::kNoNode) return;
  const auto it = needed_.find(parent_form);
  if (it == needed_.end()) return;
  if (--it->second > 0) return;
  needed_.erase(it);
  resync_active();
}

void Broker::resync_active() {
  std::vector<filter::ConjunctiveFilter> keys;
  keys.reserve(needed_.size());
  for (const auto& [form, count] : needed_) keys.push_back(form);

  std::vector<filter::ConjunctiveFilter> target_list =
      config_.covering_collapse ? weaken::collapse(std::move(keys), registry_)
                                : std::move(keys);
  std::unordered_set<filter::ConjunctiveFilter> target(
      std::make_move_iterator(target_list.begin()),
      std::make_move_iterator(target_list.end()));

  for (const auto& form : active_) {
    if (!target.contains(form)) send(parent_, Unsub{form, id_});
  }
  for (const auto& form : target) {
    if (!active_.contains(form)) send(parent_, ReqInsert{form, id_});
  }
  active_ = std::move(target);
}

void Broker::send(sim::NodeId to, const Packet& packet) {
  // Only control travels here — events leave through forward_event — and
  // control is never shed (losing a ReqInsert costs whole TTLs of
  // soft-state repair).
  link_.send_control(to, encode(packet));
}

void Broker::send_join_at(sim::NodeId subscriber, sim::NodeId target,
                          std::uint64_t token) {
  send(subscriber, JoinAt{target, token});
}

void Broker::on_parent_down(sim::NodeId peer) {
  if (crashed_ || peer != parent_ || ancestors_.empty()) return;
  const sim::Time now = transport_.now();
  // A quiet spell forgives the flap streak: re-parents long past are not
  // evidence the current link is unstable.
  if (reparent_streak_ > 0 && now - last_reparent_ > 8 * kReparentBackoff)
    reparent_streak_ = 0;
  const std::uint64_t epoch = epoch_;
  if (now >= reparent_allowed_at_) {
    do_reparent(epoch);
    return;
  }
  // Damping: wait out the backoff, then re-check — the parent may have come
  // back while we held off, in which case staying put is the whole point.
  transport_.schedule_background_at(
      reparent_allowed_at_, [this, epoch, peer] {
        if (epoch != epoch_ || crashed_ || peer != parent_) return;
        if (link_.peer_alive(peer)) return;
        do_reparent(epoch);
      });
}

void Broker::do_reparent(std::uint64_t epoch) {
  if (epoch != epoch_ || crashed_ || ancestors_.empty()) return;
  const sim::NodeId old_parent = parent_;
  // Advance along the ancestor chain; wrap around so a restarted original
  // parent is eventually retried instead of abandoned forever.
  std::size_t idx = ancestor_idx_;
  for (std::size_t step = 0; step < ancestors_.size(); ++step) {
    idx = (idx + 1) % ancestors_.size();
    if (ancestors_[idx] != old_parent) break;
  }
  if (ancestors_[idx] == old_parent) return;  // chain has no alternative
  ancestor_idx_ = idx;
  parent_ = ancestors_[idx];
  link_.unwatch(old_parent);
  // Buffered in-flight and queued frames follow us to the new parent, in
  // order, keeping their shed class.
  link_.redirect(old_parent, parent_);
  link_.watch(parent_);
  // Replay the aggregated filter table upward — plain renewal-by-
  // reinsertion, so the new parent needs no special re-parent handling.
  // Deliberately no Unsub to the old parent: between an Unsub processed
  // there and a ReqInsert processed here, events down the old path would
  // match nothing and vanish. The stale entries decay by lease TTL, and
  // transient dual-path duplicates die at the subscribers' event-id dedup.
  for (const auto& form : active_) send(parent_, ReqInsert{form, id_});
  // Make-before-break: remember the old parent and keep renewing its
  // leases (renew_task) until the new parent has acked the replayed table.
  // If the death was a heartbeat false positive the old path keeps carrying
  // events across the handover gap; if the parent is truly dead the extra
  // renewals are undeliverable noise that stops at the first drained renew.
  // The mark pins the replayed table's position in the new parent's tx
  // stream; `in_flight == 0` would never hold on a link busy with events
  // (and renew_task itself refills it every tick), stalling the handover
  // forever.
  prev_parent_ = old_parent;
  handover_mark_ = link_.tx_mark(parent_);
  ++stats_.reparents;
  last_reparent_ = transport_.now();
  ++reparent_streak_;
  const std::uint32_t shift = std::min<std::uint32_t>(reparent_streak_, 10);
  reparent_allowed_at_ =
      last_reparent_ + (kReparentBackoff << shift);
}

void Broker::on_retransmit(sim::NodeId to, const sim::Network::Payload& payload) {
  if (tracer_ == nullptr || packet_class(payload) != kEventPacketClass) return;
  try {
    const std::uint64_t trace_id = decode_event_once(payload).trace_id;
    if (trace_id == 0) return;
    trace::TraceSpan span;
    span.trace_id = trace_id;
    span.kind = trace::SpanKind::Retransmit;
    span.node = id_;
    span.from = to;  // Retransmit spans record the destination here
    span.stage = stage_;
    span.ticks = transport_.now();
    tracer_->emit(std::move(span));
  } catch (const wire::WireError&) {
    // A frame corrupt enough to defeat the decode still gets retransmitted;
    // it just goes untraced.
  }
}

sim::NodeId Broker::random_child() {
  if (children_.empty()) return id_;  // degenerate: keep it local
  return children_[rng_.below(children_.size())];
}

void Broker::renew_task() {
  // Incremental re-clustering rides the renew tick: bounded work per tick
  // (index::kRebalanceBudget groups examined), so aggregation quality
  // tracks lease-table churn without a stop-the-world pass.
  if (agg_ != nullptr) agg_->rebalance(index::kRebalanceBudget);
  if (prev_parent_ != sim::kNoNode) {
    const link::LinkManager::TxMark cur = link_.tx_mark(parent_);
    if (cur.session != handover_mark_.session) {
      // The stream to the new parent was reset underneath us (it cold-
      // restarted mid-handover); the replayed table was re-enqueued under
      // the fresh session, so chase the new stream's mark instead.
      handover_mark_ = cur;
    }
    if (link_.tx_reached(parent_, handover_mark_)) {
      // The new parent has acked the replayed ReqInserts (the mark was
      // taken right after they were sent), so its table now covers us.
      // Handover done; let the old parent's leases lapse by TTL and drop
      // the dead stream's state — without this, renewals still unacked
      // toward a truly-dead old parent would keep its retransmit timer
      // firing forever. If the death was a false positive, the old parent
      // re-syncs our rx stream on its next frame and subscriber event-id
      // dedup absorbs the transient re-delivery.
      if (prev_parent_ != parent_) link_.forget(prev_parent_);
      prev_parent_ = sim::kNoNode;
    } else if (prev_parent_ != parent_) {
      for (const auto& form : active_) send(prev_parent_, ReqInsert{form, id_});
    }
  }
  if (parent_ != sim::kNoNode) {
    for (const auto& form : active_) send(parent_, ReqInsert{form, id_});
  }
}

void Broker::park_unmatched(const sim::Network::Payload& payload) {
  // Drop-oldest eviction is a real loss during a heal; count it so a
  // chaos run can tell an undersized pen from a closed race.
  if (!health::push_bounded(pen_, kMatchGraceLimit,
                            Parked{payload, transport_.now()}))
    ++stats_.events_pen_dropped;
  ++stats_.events_parked;
  if (!pen_task_.running()) pen_task_.start();
}

void Broker::pen_tick() {
  const sim::Time now = transport_.now();
  std::deque<Parked> keep;
  for (Parked& parked : pen_) {
    // A parked frame decoded on arrival, so this reads its memo.
    const EventMsg* ev = nullptr;
    try {
      ev = &decode_event_once(parked.payload);
    } catch (const wire::WireError&) {
      continue;  // cannot happen for a frame that decoded once; drop it
    }
    if (match_targets(ev->image)) {
      ++stats_.events_rescued;
      fan_out(parked.payload);
      continue;
    }
    if (now - parked.parked_at < config_.match_grace) {
      keep.push_back(std::move(parked));
      continue;
    }
    // Durable recovery: an event that outlived the grace window with no
    // local match may be one a crash stranded here — matched to this
    // broker while its children were re-parenting away, or replayed from
    // the journal after they left. Hand the frame back to the parent to
    // re-match against the *healed* table (subscriber dedup absorbs the
    // copies that did arrive another way); a parentless root re-parks it
    // for another grace round instead, since post-restart its table heals
    // only as fast as the children's renewals get through. One budget
    // covers both: the parent may still hold a lease pointing right back
    // at a freshly restarted child (stale for up to 3×TTL), and a root's
    // heal can span several grace windows under sustained loss — while a
    // routine weakening false positive burns its budget and then drops
    // instead of circulating forever.
    if (journal_ == nullptr || !take_bounce_budget(ev->event_id)) continue;
    if (parent_ != sim::kNoNode) {
      link_.send_event(parent_, parked.payload);
    } else {
      parked.parked_at = now;
      keep.push_back(std::move(parked));
    }
  }
  pen_ = std::move(keep);
  if (pen_.empty()) pen_task_.stop();
}

void Broker::forward_event(sim::NodeId target,
                           const sim::Network::Payload& payload) {
  if (!config_.quarantine) {
    link_.send_event(target, payload);
    return;
  }
  const auto [it, inserted] = child_health_.try_emplace(target);
  ChildHealth& ch = it->second;
  if (inserted) ch.health = health::QueueHealth{config_.child_queue};
  if (ch.quarantined) {
    park_quarantined(ch, payload);
    return;
  }
  link_.send_event(target, payload);
  observe_child(target, ch);
}

void Broker::observe_child(sim::NodeId target, ChildHealth& ch) {
  const health::NodeState state =
      ch.health.observe(link_.queued_events(target));
  if (state == health::NodeState::Healthy) {
    ch.above_since = 0;
    return;
  }
  // Clamp to 1 so t=0 is distinguishable from the "not above" sentinel.
  const sim::Time now = std::max<sim::Time>(transport_.now(), 1);
  if (ch.above_since == 0) ch.above_since = now;
  // Quarantine on a sustained backlog — or immediately when the queue hits
  // capacity, so per-child link state never outgrows the watermark bound.
  if (state == health::NodeState::Shedding ||
      now - ch.above_since >= config_.quarantine_after)
    quarantine_child(target, ch);
}

void Broker::quarantine_child(sim::NodeId target, ChildHealth& ch) {
  ch.quarantined = true;
  ++stats_.children_quarantined;
  // Pull the backlog out of the link: the stream keeps only its in-flight
  // window and control traffic, so lease renewals toward the slow child
  // are never head-of-line blocked behind a wall of stalled events.
  for (sim::Network::Payload& payload : link_.take_pending_events(target))
    park_quarantined(ch, payload);
  if (!quarantine_task_.running()) quarantine_task_.start();
}

void Broker::park_quarantined(ChildHealth& ch,
                              const sim::Network::Payload& payload) {
  if (!health::push_bounded(ch.pen, config_.quarantine_pen_limit, payload)) {
    ++ch.dropped;
    ++stats_.events_quarantine_dropped;
  }
  ++stats_.events_quarantined;
}

void Broker::quarantine_tick() {
  bool active = false;
  for (auto& [child, ch] : child_health_) {
    if (!ch.quarantined) continue;
    // Paced re-feed: top the link queue up to the low watermark and no
    // further. A still-stalled child caps its link state at `low` frames;
    // a recovering one drains those, and the next tick feeds more.
    while (!ch.pen.empty() &&
           link_.queued_events(child) < config_.child_queue.low) {
      link_.send_event(child, ch.pen.front());
      ch.pen.pop_front();
    }
    if (ch.pen.empty() &&
        link_.queued_events(child) < config_.child_queue.low) {
      ch.quarantined = false;
      ch.health = health::QueueHealth{config_.child_queue};
      ch.above_since = 0;
      continue;
    }
    active = true;
  }
  if (!active) quarantine_task_.stop();
}

bool Broker::take_bounce_budget(std::uint64_t event_id) {
  // One budget across every durable-recovery resend path (pen bounce, root
  // re-park, recovery-window relay): a stale lease pointing back at a
  // freshly restarted broker can return a frame for up to 3×TTL, so a
  // single round is not enough — but a frame must not circulate forever
  // either. Eight rounds outlast any heal observed under sustained loss.
  constexpr std::uint32_t kPenBounceBudget = 8;
  auto& count = bounced_[event_id];
  if (count >= kPenBounceBudget) return false;
  if (count++ == 0) {
    bounced_order_.push_back(event_id);
    if (bounced_order_.size() > 4 * kMatchGraceLimit) {
      bounced_.erase(bounced_order_.front());
      bounced_order_.pop_front();
    }
  }
  ++stats_.events_bounced;
  return true;
}

void Broker::replay_journal() {
  replaying_ = true;
  journal_->scan(journal_->first_offset(), [this](const journal::Record& rec) {
    ++stats_.journal_replays;
    if (rec.kind == journal::RecordKind::Cursor) {
      const auto cursor = journal::Journal::parse_cursor(rec.payload);
      if (!cursor) return;  // unreachable past the CRC, but stay safe
      if (cursor->active) {
        durable_cursor_[static_cast<sim::NodeId>(cursor->subscriber)] =
            cursor->offset;
        detached_.try_emplace(static_cast<sim::NodeId>(cursor->subscriber));
      } else {
        durable_cursor_.erase(static_cast<sim::NodeId>(cursor->subscriber));
        detached_.erase(static_cast<sim::NodeId>(cursor->subscriber));
      }
      return;
    }
    // Re-drive the event through the normal matcher. The post-restart table
    // is empty, so these land in the grace pen and get forwarded as the
    // children re-insert their filters (renewal-by-reinsertion) — exactly
    // the heal-time race machinery, now fed from disk instead of from a
    // lucky retransmission. Duplicate deliveries on paths that already
    // carried the event pre-crash die at the subscribers' event-id dedup.
    const sim::Network::Payload payload{
        std::vector<std::byte>{rec.payload.begin(), rec.payload.end()}};
    try {
      handle_event_frame(id_, payload);
    } catch (const wire::WireError&) {
      ++stats_.malformed_packets;  // CRC-valid record, frame still hostile
    }
  });
  replaying_ = false;
}

void Broker::replay_range_to(sim::NodeId child, std::uint64_t from) {
  journal_->scan(from, [this, child](const journal::Record& rec) {
    if (rec.kind != journal::RecordKind::Event) return;
    const sim::Network::Payload payload{
        std::vector<std::byte>{rec.payload.begin(), rec.payload.end()}};
    const EventMsg* ev = nullptr;
    try {
      ev = &decode_event_once(payload);
    } catch (const wire::WireError&) {
      ++stats_.malformed_packets;
      return;
    }
    if (!match_targets(ev->image) ||
        !std::binary_search(target_scratch_.begin(), target_scratch_.end(),
                            child))
      return;
    // Pass-through serve: the journaled bytes are the frame the
    // publisher built, so replay forwards are byte-identical to live
    // ones and the subscriber's dedup treats them as the same event.
    forward_event(child, payload);
    ++stats_.events_replayed;
  });
}

void Broker::reap_task() {
  const sim::Time now = transport_.now();
  // Durable mode keeps expired leases as lame ducks for one match_grace:
  // a renewal delayed by loss (head-of-line blocked behind event frames in
  // the in-order stream) refreshes the lease instead of round-tripping an
  // Expired re-insert, and events that arrive meanwhile still forward to
  // the child. Without this an event that *partially* matches — some live
  // target plus one reaped lease — is under-delivered silently: the pen
  // only catches zero-match arrivals. Duplicated forwards are absorbed by
  // subscriber dedup; frames to genuinely dead peers stop at the link's
  // failure detector.
  const sim::Time lame_duck = journal_ != nullptr ? config_.match_grace : 0;
  std::vector<index::FilterId> dead;
  for (auto& [fid, entry] : entries_) {
    std::erase_if(entry.leases, [&](const Lease& lease) {
      return lease.expires + lame_duck <= now;
    });
    if (entry.leases.empty()) dead.push_back(fid);
  }
  for (const index::FilterId fid : dead) remove_entry(fid);
}

}  // namespace cake::routing
