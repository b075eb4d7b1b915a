#include "cake/routing/endpoints.hpp"

#include <algorithm>
#include <utility>

#include "cake/event/event.hpp"
#include "cake/health/health.hpp"

namespace cake::routing {

SubscriberNode::SubscriberNode(sim::NodeId id, sim::NodeId root,
                               sim::Network& network, runtime::Transport& transport,
                               const reflect::TypeRegistry& registry,
                               SubscriberConfig config)
    : id_(id),
      root_(root),
      network_(network),
      transport_(transport),
      registry_(registry),
      config_(config),
      // Seeded from the node id alone; see the Broker constructor note.
      link_(id, network, transport, config.link,
            (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL),
      renew_(transport, config.renew_interval, [this] { renew_task(); }) {}

void SubscriberNode::start() {
  attach_to_network();
  if (config_.auto_renew) renew_.start();
}

void SubscriberNode::attach_to_network() {
  link_.attach([this](sim::NodeId from, const sim::Network::Payload& p) {
    on_packet(from, p);
  });
  if (link_.reliable())
    link_.set_peer_down([this](sim::NodeId peer) { on_broker_down(peer); });
}

void SubscriberNode::sync_watches() {
  if (!link_.reliable()) return;
  const std::vector<sim::NodeId> hosts = hosting_nodes();
  for (const sim::NodeId node : hosts) {
    // A host already declared dead is not re-armed: its subscriptions are
    // mid-rejoin and watching it again would only re-fire the detector.
    if (dead_hosts_.count(node) != 0) continue;
    if (watched_.insert(node).second) link_.watch(node);
  }
  for (auto it = watched_.begin(); it != watched_.end();) {
    if (std::find(hosts.begin(), hosts.end(), *it) == hosts.end()) {
      link_.unwatch(*it);
      it = watched_.erase(it);
    } else {
      ++it;
    }
  }
}

void SubscriberNode::on_broker_down(sim::NodeId peer) {
  if (halted_ || detached_) return;
  link_.unwatch(peer);
  watched_.erase(peer);
  // Drop the dead streams; if the broker was only slow, first contact under
  // its old session triggers a clean stream resync.
  link_.forget(peer);
  dead_hosts_.insert(peer);
  for (const Sub& sub : subs_) {
    if (!sub.parent.has_value() || *sub.parent != peer) continue;
    // Re-enter through the covering search at the root, like any rejoin —
    // but keep the old lease on the books (make-before-break). Declared
    // death may be a false positive under heavy loss, and until AcceptedAt
    // confirms a replacement home the old lease is the only path that can
    // carry events published in the gap. If the host really is gone the
    // renewals fall on deaf ears and the lease decays with its broker.
    ++stats_.rejoins;
    send(root_, Subscribe{sub.exact, id_, sub.token, sub.durable});
  }
}

const SubscriberNode::Sub* SubscriberNode::find_sub(
    std::uint64_t token) const noexcept {
  const auto it = std::lower_bound(
      subs_.begin(), subs_.end(), token,
      [](const Sub& sub, std::uint64_t t) { return sub.token < t; });
  return it != subs_.end() && it->token == token ? &*it : nullptr;
}

SubscriberNode::Sub* SubscriberNode::find_sub(std::uint64_t token) noexcept {
  return const_cast<Sub*>(std::as_const(*this).find_sub(token));
}

std::uint64_t SubscriberNode::subscribe(filter::ConjunctiveFilter exact,
                                        Handler handler, LocalPredicate local,
                                        bool durable,
                                        std::uint64_t replay_from) {
  // §4.4: convert to standard form so wildcard attributes are explicit and
  // constraints follow the most-general-first attribute order.
  if (const reflect::TypeInfo* type = registry_.find(exact.type().name.id))
    exact = exact.standard_form(*type);

  const std::uint64_t token = next_token_++;
  sigs_.push_back(filter::signature(exact));
  subs_.push_back(Sub{token, exact, std::move(handler), std::move(local),
                      durable, /*group=*/0, std::nullopt, {}, replay_from});
  send(root_, Subscribe{std::move(exact), id_, token, durable, replay_from});
  return token;
}

std::vector<std::uint64_t> SubscriberNode::subscribe_any(
    std::vector<filter::ConjunctiveFilter> disjuncts, Handler handler,
    LocalPredicate local, bool durable) {
  const std::uint64_t group = next_group_++;
  std::vector<std::uint64_t> tokens;
  tokens.reserve(disjuncts.size());
  for (auto& disjunct : disjuncts) {
    if (const reflect::TypeInfo* type = registry_.find(disjunct.type().name.id))
      disjunct = disjunct.standard_form(*type);
    const std::uint64_t token = next_token_++;
    sigs_.push_back(filter::signature(disjunct));
    subs_.push_back(
        Sub{token, disjunct, handler, local, durable, group, std::nullopt, {}});
    send(root_, Subscribe{std::move(disjunct), id_, token, durable});
    tokens.push_back(token);
  }
  return tokens;
}

std::vector<sim::NodeId> SubscriberNode::hosting_nodes() const {
  std::vector<sim::NodeId> nodes;
  for (const Sub& sub : subs_) {
    if (sub.parent.has_value() &&
        std::find(nodes.begin(), nodes.end(), *sub.parent) == nodes.end())
      nodes.push_back(*sub.parent);
  }
  return nodes;
}

void SubscriberNode::halt() {
  halted_ = true;
  renew_.stop();
  link_.detach();
}

void SubscriberNode::detach() {
  if (detached_) return;
  detached_ = true;
  // Announce first, then actually go offline: in-flight events are lost
  // (or buffered, for durable leases), exactly like a real disconnection.
  for (const sim::NodeId node : hosting_nodes()) send(node, Detach{id_});
  link_.detach();
}

void SubscriberNode::resume() {
  if (!detached_) return;
  detached_ = false;
  attach_to_network();
  for (const sim::NodeId node : hosting_nodes()) send(node, Resume{id_});
}

void SubscriberNode::stall() {
  if (stalled_ || halted_ || detached_) return;
  stalled_ = true;
  // Stop granting receive credit: upstream senders drain their remaining
  // budget, then queue — the hosting broker's slow-child detector fires on
  // that backlog. Control (renewals, ACKs) keeps flowing both ways.
  link_.set_credit_paused(true);
}

void SubscriberNode::unstall() {
  if (!stalled_) return;
  stalled_ = false;
  link_.set_credit_paused(false);
  // Drain through the normal delivery path; swap first so a re-entrant
  // stall() mid-drain parks into a fresh inbox instead of this loop.
  std::deque<std::pair<sim::NodeId, sim::Network::Payload>> parked;
  parked.swap(stall_inbox_);
  for (auto& [from, payload] : parked) on_packet(from, payload);
}

void SubscriberNode::unsubscribe(std::uint64_t token) {
  Sub* const sub = find_sub(token);
  if (sub == nullptr) return;
  const Sub gone = std::move(*sub);
  const std::ptrdiff_t index = sub - subs_.data();
  subs_.erase(subs_.begin() + index);
  sigs_.erase(sigs_.begin() + index);
  // The hosting broker keeps one lease per (child, stored form), shared by
  // every subscription of ours it stored under that form: withdraw it only
  // with the last of them, or a sibling silently loses its route.
  const bool shared = std::any_of(subs_.begin(), subs_.end(), [&](const Sub& s) {
    return s.parent == gone.parent &&
           s.stored_at_parent == gone.stored_at_parent;
  });
  if (gone.parent.has_value() && !shared)
    send(*gone.parent, Unsub{gone.stored_at_parent, id_});
  sync_watches();
}

std::optional<sim::NodeId> SubscriberNode::accepted_at(std::uint64_t token) const {
  const Sub* sub = find_sub(token);
  if (sub == nullptr) return std::nullopt;
  return sub->parent;
}

std::vector<SubscriberNode::SubscriptionView>
SubscriberNode::subscription_views() const {
  std::vector<SubscriptionView> views;
  views.reserve(subs_.size());
  for (const Sub& sub : subs_)
    views.push_back({sub.token, sub.parent, sub.stored_at_parent, sub.exact});
  return views;
}

void SubscriberNode::on_packet(sim::NodeId from,
                               const sim::Network::Payload& payload) {
  // Any arrival is proof of life: a host we declared dead is revived and
  // becomes watchable again the next time sync_watches runs. The set is
  // almost always empty, and then the probe is skipped.
  if (!dead_hosts_.empty()) dead_hosts_.erase(from);
  if (packet_class(payload) == kEventPacketClass) {
    if (stalled_) {
      // Stalled consumer: the protocol stack is alive but the application
      // stopped draining. Park the frame in the bounded inbox; control
      // traffic (joins, Expired, renewal replies) is handled normally.
      if (!health::push_bounded(stall_inbox_, config_.stall_inbox_limit,
                                {from, payload}))
        ++stats_.stall_inbox_dropped;
      ++stats_.events_stalled;
      return;
    }
    // The first receiver of this frame decoded it; every other subscriber
    // and hop reads the same memo, which lives as long as `payload`.
    const EventMsg* ev = nullptr;
    try {
      ev = &decode_event_once(payload);
    } catch (const wire::WireError&) {
      ++stats_.malformed_packets;
      return;
    }
    deliver_event(from, *ev);
    return;
  }
  Packet packet;
  try {
    packet = decode_once(payload);
  } catch (const wire::WireError&) {
    ++stats_.malformed_packets;
    return;
  }

  if (auto* join = std::get_if<JoinAt>(&packet)) {
    const Sub* sub = find_sub(join->token);
    if (sub == nullptr) return;  // unsubscribed mid-handshake
    ++stats_.join_redirects;
    // The replay request follows the covering-search redirects: whichever
    // broker finally accepts the join serves it.
    send(join->target, Subscribe{sub->exact, id_, join->token, sub->durable,
                                 sub->replay_from});
    return;
  }

  if (auto* accepted = std::get_if<AcceptedAt>(&packet)) {
    Sub* const sub = find_sub(accepted->token);
    if (sub == nullptr) return;
    // A retried join can be accepted twice (the first AcceptedAt or JoinAt
    // was lost in transit, the retry raced it): keep the newest home. The
    // older lease is not retracted: event-id dedup already makes the dual
    // path exactly-once, while an Unsub racing an in-flight event at the old
    // home's ancestors can remove the only lease that would have routed it —
    // a lost event, not a duplicate. Superseded leases decay by TTL once
    // renewals stop. (Same for a home declared dead: if it revives, its
    // stale lease just expires.)
    sub->parent = accepted->node;
    sub->stored_at_parent = std::move(accepted->stored);
    // The accepting broker has served any requested replay; clear it so
    // renewals, rejoins and duplicate-accept retries never re-request it.
    sub->replay_from = kNoReplay;
    sync_watches();
    return;
  }

  if (auto* expired = std::get_if<Expired>(&packet)) {
    if (!config_.rejoin_on_expired) return;  // injected completeness bug
    // A hosting broker reaped our lease (lost renewals, partition healed):
    // re-run the join protocol for the affected subscriptions.
    for (Sub& sub : subs_) {
      if (!sub.parent.has_value() || sub.stored_at_parent != expired->filter)
        continue;
      sub.parent.reset();
      ++stats_.rejoins;
      send(root_, Subscribe{sub.exact, id_, sub.token, sub.durable});
    }
    sync_watches();
  }
}

bool SubscriberNode::first_copy(std::uint64_t event_id) {
  constexpr std::uint32_t kMask = kDedupWindow - 1;
  const auto publisher = static_cast<std::uint32_t>(event_id >> 32);
  const auto seq = static_cast<std::uint32_t>(event_id);
  auto window = std::find_if(
      windows_.begin(), windows_.end(),
      [publisher](const SeqWindow& w) { return w.publisher == publisher; });
  if (window == windows_.end()) {
    windows_.push_back({publisher, seq,
                        std::vector<std::uint64_t>(kDedupWindow / 64)});
    window = windows_.end() - 1;
  } else if (seq > window->high) {
    // Advance the high-water mark; the bits of every skipped seq now stand
    // for seqs a full window newer, so clear them, a word at a time.
    std::uint32_t from = window->high + 1;
    std::uint32_t left = std::min(seq - window->high, kDedupWindow);
    while (left > 0) {
      const std::uint32_t bit = from & 63;
      const std::uint32_t take = std::min(64 - bit, left);
      const std::uint64_t span =
          take == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << take) - 1);
      window->seen[(from & kMask) >> 6] &= ~(span << bit);
      from += take;
      left -= take;
    }
    window->high = seq;
  } else if (window->high - seq >= kDedupWindow) {
    ++stats_.events_stale;
    return false;
  }
  std::uint64_t& word = window->seen[(seq & kMask) >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

void SubscriberNode::deliver_event(sim::NodeId from, const EventMsg& ev) {
  ++stats_.events_received;
  // Exactly-once gate: the link layer already dedups per stream, but
  // sibling subscriptions hosted apart, a re-parent or a journal replay can
  // leave two paths carrying the same event.
  if (!first_copy(ev.event_id)) return;
  bool delivered = false;
  // A composite's members hold consecutive tokens, so they sit together in
  // subs_: remembering the last group that fired keeps its handler to one
  // call per event, however many disjuncts match.
  std::uint64_t fired_group = 0;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    // Signature prefilter: a filter's equality bits must all be in the
    // event's word, or the filter cannot match (DESIGN.md §9).
    if ((sigs_[i] & ~ev.signature) != 0) continue;
    const Sub& sub = subs_[i];
    if (!sub.exact.matches(ev.image, registry_)) continue;
    if (sub.local && !sub.local(ev.image)) continue;
    delivered = true;
    if (sub.group != 0) {
      if (sub.group == fired_group) continue;
      fired_group = sub.group;
    }
    if (sub.handler) sub.handler(ev.image);
  }
  if (delivered) {
    ++stats_.events_delivered;
    latency_.add(static_cast<double>(transport_.now() - ev.published_at));
  }
  if (tracer_ != nullptr && ev.trace_id != 0)
    emit_trace_span(ev, from, delivered);
}

void SubscriberNode::emit_trace_span(const EventMsg& msg, sim::NodeId from,
                                     bool delivered) {
  trace::TraceSpan span;
  span.trace_id = msg.trace_id;
  span.kind = trace::SpanKind::Subscriber;
  span.node = id_;
  span.from = from;
  span.stage = 0;
  span.filters_evaluated = subs_.size();
  span.matched = delivered;
  span.ticks = transport_.now();
  if (!delivered) {
    // Spurious arrival (Proposition 1's false positive): attribute it. A
    // subscription is culpable when the weakened form its hosting broker
    // holds still matches — that form is why the broker forwarded here. The
    // first exact constraint the event fails names the weakened-away
    // attribute to blame; when the exact filter passes but the stateful
    // local predicate vetoed, no declarative attribute is at fault. The
    // table is in ascending token order, so the blame list is deterministic.
    for (const Sub& sub : subs_) {
      if (!sub.parent.has_value()) continue;
      if (!sub.stored_at_parent.matches(msg.image, registry_)) continue;
      std::string blame;
      if (!sub.exact.type().matches(msg.image.type_id(), registry_)) {
        blame = "(class)";
      } else {
        for (const auto& c : sub.exact.constraints()) {
          if (!c.matches(msg.image)) {
            blame = c.name.text;
            break;
          }
        }
        if (blame.empty()) blame = "(local-predicate)";
      }
      if (std::find(span.weakened_attrs_hit.begin(),
                    span.weakened_attrs_hit.end(),
                    blame) == span.weakened_attrs_hit.end())
        span.weakened_attrs_hit.push_back(std::move(blame));
    }
    if (span.weakened_attrs_hit.empty() && config_.merge_blame) {
      // No hosted weakened form matches, so stage weakening cannot explain
      // this forward: the hosting broker's *merged* table entry (a LUB
      // covering this subscription plus others) matched instead. Blame the
      // first stored constraint the event fails of the lowest-token
      // subscription hosted at the forwarding broker — the constraint the
      // merge weakened away — with a "⊔" prefix so attribution separates
      // merge cost from weakening cost. Deterministic, and it keeps the
      // span attributed: sums still reconcile against
      // metrics::spurious_deliveries with zero kUnattributed rows.
      for (const Sub& sub : subs_) {
        if (!sub.parent.has_value() || *sub.parent != from) continue;
        std::string blame;
        if (!sub.stored_at_parent.type().matches(msg.image.type_id(),
                                                 registry_)) {
          blame = "(class)";
        } else {
          for (const auto& c : sub.stored_at_parent.constraints()) {
            if (!c.matches(msg.image)) {
              blame = c.name.text;
              break;
            }
          }
        }
        if (blame.empty()) continue;  // unreachable: the form failed above
        span.weakened_attrs_hit.push_back("⊔" + blame);
        break;
      }
    }
  }
  tracer_->emit(std::move(span));
}

void SubscriberNode::renew_task() {
  if (!detached_) {
    for (const Sub& sub : subs_) {
      if (sub.parent.has_value()) {
        send(*sub.parent, Renew{sub.stored_at_parent, id_});
        if (dead_hosts_.count(*sub.parent) != 0) {
          // The home is presumed dead and the rejoin kicked off by
          // on_broker_down has not been accepted yet (possibly lost in the
          // same fault window): keep retrying while the old lease is kept
          // warm above.
          ++stats_.rejoins;
          send(root_, Subscribe{sub.exact, id_, sub.token, sub.durable});
        }
      } else {
        // Join still pending: the original Subscribe, a JoinAt redirect or
        // the AcceptedAt may have been lost. Retry from the root — the
        // covering search is idempotent, and a duplicate accept is
        // reconciled above. A still-unserved replay request rides along.
        ++stats_.rejoins;
        send(root_, Subscribe{sub.exact, id_, sub.token, sub.durable,
                              sub.replay_from});
      }
    }
  }
}

void SubscriberNode::send(sim::NodeId to, const Packet& packet) {
  link_.send_control(to, encode(packet));
}

PublisherNode::PublisherNode(sim::NodeId id, sim::NodeId root,
                             sim::Network& network, runtime::Transport& transport,
                             link::LinkOptions link)
    : id_(id),
      root_(root),
      network_(network),
      transport_(transport),
      link_(id, network, transport, link,
            (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL) {
  // A reliable publisher must hear ACKs back from the root, so it attaches
  // a (discarding) receive handler. Best-effort publishers stay unattached,
  // exactly like the pre-link-layer system.
  if (link_.reliable())
    link_.attach([](sim::NodeId, const sim::Network::Payload&) {});
}

void PublisherNode::advertise(weaken::StageSchema schema) {
  link_.send_control(root_, encode(Advertise{std::move(schema)}));
}

std::uint64_t PublisherNode::publish(const event::Event& event) {
  return publish(event::image_of(event));
}

std::uint64_t PublisherNode::publish(event::EventImage image) {
  ++stats_.events_published;
  const std::uint64_t event_id =
      (static_cast<std::uint64_t>(id_) << 32) | next_seq_++;
  const trace::TraceId trace_id =
      tracer_ != nullptr ? tracer_->stamp(event_id) : 0;
  if (trace_id != 0) {
    // Root of the journey: everything downstream hangs off this span.
    trace::TraceSpan span;
    span.trace_id = trace_id;
    span.kind = trace::SpanKind::Publish;
    span.node = id_;
    span.matched = true;
    span.ticks = transport_.now();
    tracer_->emit(std::move(span));
  }
  // Serialize once into a pooled frame; every downstream hop that passes
  // through refcounts these exact bytes (DESIGN.md §9).
  const sim::Network::Payload payload =
      encode_event_frame(image, transport_.now(), event_id, trace_id);
  // Recorder tap: capture the exact wire bytes, so a replay re-drives
  // byte-identical frames (same event ids, same published_at stamps).
  if (record_journal_ != nullptr) record_journal_->append_event(payload);
  link_.send_event(root_, payload);
  return event_id;
}

}  // namespace cake::routing
