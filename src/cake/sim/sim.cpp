#include "cake/sim/sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace cake::sim {

Scheduler::~Scheduler() {
  for (auto& [at, fifo] : instants_) {
    while (Item* item = fifo.head) {
      fifo.head = item->next;
      recycle(item);
    }
  }
}

void Scheduler::push(Time at, std::function<void()> fn, bool background) {
  Item* item = std::pmr::polymorphic_allocator<Item>{&pool_}.new_object<Item>(
      std::move(fn), nullptr, background);
  Fifo& fifo = instants_[std::max(at, now_)];
  (fifo.tail != nullptr ? fifo.tail->next : fifo.head) = item;
  fifo.tail = item;
  ++pending_;
  if (!background) ++foreground_pending_;
}

void Scheduler::recycle(Item* item) noexcept {
  std::pmr::polymorphic_allocator<Item>{&pool_}.delete_object(item);
}

void Scheduler::schedule_at(Time at, std::function<void()> fn) {
  push(at, std::move(fn), false);
}

void Scheduler::schedule_after(Time delay, std::function<void()> fn) {
  schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::schedule_background_at(Time at, std::function<void()> fn) {
  push(at, std::move(fn), true);
}

void Scheduler::schedule_background_after(Time delay, std::function<void()> fn) {
  schedule_background_at(now_ + delay, std::move(fn));
}

bool Scheduler::step() {
  if (instants_.empty()) return false;
  // Unlink before running: the closure may schedule more work, including
  // at this very instant (a fresh FIFO behind whatever is left here).
  const auto first = instants_.begin();
  Fifo& fifo = first->second;
  Item* item = fifo.head;
  fifo.head = item->next;
  now_ = first->first;
  if (fifo.head == nullptr) instants_.erase(first);
  --pending_;
  if (!item->background) --foreground_pending_;
  struct Recycle {
    Scheduler& self;
    Item* item;
    ~Recycle() { self.recycle(item); }
  } recycle_after{*this, item};
  item->fn();
  return true;
}

std::size_t Scheduler::run(std::size_t max_steps) {
  std::size_t steps = 0;
  while (steps < max_steps && foreground_pending_ > 0 && step()) ++steps;
  return steps;
}

void Scheduler::run_until(Time deadline) {
  while (!instants_.empty() && instants_.begin()->first <= deadline) step();
  now_ = std::max(now_, deadline);
}

namespace {

std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

std::size_t LinkTag::wire_bytes() const noexcept {
  if (!present) return 0;
  return 1 + varint_size(session) + varint_size(seq) + varint_size(ack) +
         varint_size(ack_session);
}

Network::Network(Scheduler& scheduler, Time default_latency)
    : scheduler_(scheduler),
      default_latency_(default_latency),
      handler_chunks_(std::make_unique<std::atomic<HandlerChunk*>[]>(
          kMaxNodes / kHandlerChunk)) {}

void Network::attach(NodeId node, Handler handler) {
  // Adapt to the tagged signature; one wrap allocation at attach time.
  attach(node, TaggedHandler{[h = std::move(handler)](
                                 NodeId from, const Payload& p,
                                 const LinkTag&) { h(from, p); }});
}

void Network::attach(NodeId node, TaggedHandler handler) {
  if (node >= kMaxNodes)
    throw std::out_of_range{"sim: node id beyond the handler table"};
  const std::lock_guard<std::mutex> lock{attach_mu_};
  std::atomic<HandlerChunk*>& top = handler_chunks_[node / kHandlerChunk];
  HandlerChunk* chunk = top.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = chunk_store_.emplace_back(std::make_unique<HandlerChunk>()).get();
    top.store(chunk, std::memory_order_release);
  }
  auto& fresh = handler_store_.emplace_back(
      std::make_unique<TaggedHandler>(std::move(handler)));
  chunk->slots[node % kHandlerChunk].store(fresh.get(),
                                           std::memory_order_release);
  if (node >= received_.size()) received_.resize(node + std::size_t{1});
}

void Network::detach(NodeId node) {
  if (node >= kMaxNodes) return;
  const std::lock_guard<std::mutex> lock{attach_mu_};
  HandlerChunk* chunk =
      handler_chunks_[node / kHandlerChunk].load(std::memory_order_relaxed);
  if (chunk != nullptr)
    chunk->slots[node % kHandlerChunk].store(nullptr,
                                             std::memory_order_release);
}

bool Network::attached(NodeId node) const noexcept {
  return handler_of(node) != nullptr;
}

void Network::set_loss_rate(double rate, std::uint64_t seed) {
  if (fabric_ && rate > 0.0)
    throw std::logic_error{"sim: loss process is sim-only, not fabric mode"};
  loss_rate_ = rate;
  loss_rng_ = util::Rng{seed};
}

Network::Link& Network::link_record(NodeId from, NodeId to) {
  return links_.try_emplace(key(from, to), Link{{}, default_latency_})
      .first->second;
}

void Network::set_latency(NodeId from, NodeId to, Time latency) {
  link_record(from, to).latency = latency;
}

void Network::set_interceptor(Interceptor interceptor) {
  if (fabric_ && interceptor)
    throw std::logic_error{"sim: interceptors are sim-only, not fabric mode"};
  interceptor_ = std::move(interceptor);
}

void Network::bind_lanes(runtime::Transport& transport,
                         std::function<std::size_t(NodeId)> lane_of,
                         std::size_t batch, std::size_t inbox_capacity) {
  if (fabric_) throw std::logic_error{"sim: lanes already bound"};
  if (loss_rate_ > 0.0 || interceptor_)
    throw std::logic_error{
        "sim: fabric mode excludes loss/interceptors (chaos runs on the "
        "virtual-time oracle)"};
  const std::size_t lanes = std::max<std::size_t>(transport.workers(), 1);
  auto fabric = std::make_unique<Fabric>(lanes);
  fabric->transport = &transport;
  fabric->lane_of = std::move(lane_of);
  fabric->batch = std::max<std::size_t>(batch, 1);
  fabric->inboxes.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    fabric->inboxes.push_back(std::make_unique<LaneInbox>(inbox_capacity));
  fabric->send_slots = std::vector<SendSlot>(lanes + 1);
  fabric_ = std::move(fabric);
}

void Network::send(NodeId from, NodeId to, Payload payload) {
  send(from, to, std::move(payload), LinkTag{});
}

void Network::send(NodeId from, NodeId to, Payload payload,
                   const LinkTag& tag) {
  if (fabric_) {
    threaded_send(from, to, std::move(payload), tag);
    return;
  }
  const std::size_t size = payload.size() + tag.wire_bytes();
  Link& link = link_record(from, to);
  ++link.stats.messages;
  link.stats.bytes += size;
  ++total_.messages;
  total_.bytes += size;

  if (loss_rate_ > 0.0 && loss_rng_.chance(loss_rate_)) {
    ++dropped_;
    return;
  }

  FaultAction action;
  if (interceptor_) action = interceptor_(from, to, payload);
  if (action.copies == 0) {
    ++dropped_;
    return;
  }
  duplicated_ += action.copies - 1;

  const Time delay = link.latency + action.extra_latency;
  for (std::uint32_t copy = 0; copy + 1 < action.copies; ++copy)
    schedule_delivery(from, to, delay, payload, tag);
  schedule_delivery(from, to, delay, std::move(payload), tag);
}

void Network::schedule_delivery(NodeId from, NodeId to, Time delay,
                                Payload payload, const LinkTag& tag) {
  // Park the message in a pooled slot: the closure captures 12 bytes and
  // fits std::function's inline storage, so steady-state delivery never
  // allocates (the slot vector stops growing once it covers the peak
  // in-flight count).
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(delivery_slots_.size());
    delivery_slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Delivery& d = delivery_slots_[slot];
  d.from = from;
  d.to = to;
  d.payload = std::move(payload);
  d.tag = tag;
  scheduler_.schedule_after(delay, [this, slot] { deliver(slot); });
}

void Network::count_outside_send(NodeId from, NodeId to, std::size_t size) {
  Fabric& f = *fabric_;
  const std::lock_guard lock{f.overflow_mutex};
  LinkStats& stats = f.send_slots.back().links[key(from, to)];
  ++stats.messages;
  stats.bytes += size;
}

void Network::threaded_send(NodeId from, NodeId to, Payload payload,
                            const LinkTag& tag) {
  Fabric& f = *fabric_;
  const std::size_t lanes = f.inboxes.size();
  const std::size_t size = payload.size() + tag.wire_bytes();
  const std::size_t self = runtime::current_lane();

  f.messages.add(self, 1);
  f.bytes.add(self, size);
  if (self < lanes) {
    LinkStats& stats = f.send_slots[self].links[key(from, to)];
    ++stats.messages;
    stats.bytes += size;
  } else {
    count_outside_send(from, to, size);
  }

  const std::size_t dst = f.lane_of(to) % lanes;
  LaneInbox& inbox = *f.inboxes[dst];
  Delivery d;
  d.from = from;
  d.to = to;
  d.payload = std::move(payload);
  d.tag = tag;
  while (!inbox.ring.try_push(std::move(d))) {
    // Full ring. The arming invariant guarantees its consumer is scheduled,
    // so waiting is productive — but a cycle of lane workers all blocked on
    // full rings would deadlock, so a worker makes room by help-draining
    // its *own* inbox (it is that ring's only legal consumer) while it
    // waits. Non-worker threads (setup traffic from main) just yield.
    if (self < lanes) {
      LaneInbox& mine = *f.inboxes[self];
      Delivery head;
      if (mine.ring.try_pop(head)) {
        mine.pending.fetch_sub(1, std::memory_order_acq_rel);
        ++mine.help_drained;
        deliver_on_lane(mine, std::move(head));
        continue;
      }
    }
    std::this_thread::yield();
  }
  // Push-then-count: once the increment lands, the cell publish above is
  // visible to whoever reads the counter (release/acquire RMW chain), so a
  // drain task observing pending > 0 can always pop that many items.
  if (inbox.pending.fetch_add(1, std::memory_order_acq_rel) == 0)
    f.transport->post(dst, [this, dst] { drain_inbox(dst); });
}

void Network::drain_inbox(std::size_t lane) {
  Fabric& f = *fabric_;
  LaneInbox& inbox = *f.inboxes[lane];
  std::size_t n = 0;
  Delivery d;
  while (n < f.batch && inbox.ring.try_pop(d)) {
    ++n;
    deliver_on_lane(inbox, std::move(d));
  }
  const std::int64_t left =
      inbox.pending.fetch_sub(static_cast<std::int64_t>(n),
                              std::memory_order_acq_rel) -
      static_cast<std::int64_t>(n);
  // Leftovers (batch cap hit, or items raced in after we saw empty): keep
  // the arming invariant by rescheduling ourselves before retiring.
  if (left > 0)
    f.transport->post(lane, [this, lane] { drain_inbox(lane); });
}

void Network::deliver_on_lane(LaneInbox& inbox, Delivery d) {
  // The handler table is lane-safe (see attach), so the lookup needs no lock.
  TaggedHandler* handler = handler_of(d.to);
  if (handler == nullptr) {
    ++inbox.undeliverable;
    return;
  }
  ++inbox.delivered;
  if (d.to >= inbox.received.size()) inbox.received.resize(d.to + std::size_t{1});
  ++inbox.received[d.to];
  (*handler)(d.from, d.payload, d.tag);
}

void Network::deliver(std::uint32_t slot) {
  // Move the record out and recycle the slot *before* running the handler:
  // handlers send more messages, which may claim it again.
  Delivery d = std::move(delivery_slots_[slot]);
  delivery_slots_[slot] = Delivery{};
  free_slots_.push_back(slot);
  TaggedHandler* handler = handler_of(d.to);
  if (handler == nullptr) {
    ++undeliverable_;  // crashed / detached peer
    return;
  }
  ++delivered_;
  ++received_[d.to];  // sized by attach
  (*handler)(d.from, d.payload, d.tag);
}

std::uint64_t Network::total_messages() const noexcept {
  return fabric_ ? fabric_->messages.read() : total_.messages;
}

std::uint64_t Network::total_bytes() const noexcept {
  return fabric_ ? fabric_->bytes.read() : total_.bytes;
}

std::uint64_t Network::delivered() const noexcept {
  if (!fabric_) return delivered_;
  std::uint64_t total = 0;
  for (const auto& inbox : fabric_->inboxes) total += inbox->delivered;
  return total;
}

std::uint64_t Network::undeliverable() const noexcept {
  if (!fabric_) return undeliverable_;
  std::uint64_t total = 0;
  for (const auto& inbox : fabric_->inboxes) total += inbox->undeliverable;
  return total;
}

std::uint64_t Network::help_drained() const noexcept {
  if (!fabric_) return 0;
  std::uint64_t total = 0;
  for (const auto& inbox : fabric_->inboxes) total += inbox->help_drained;
  return total;
}

LinkStats Network::link(NodeId from, NodeId to) const noexcept {
  if (fabric_) {
    LinkStats merged;
    for (const SendSlot& slot : fabric_->send_slots) {
      const auto it = slot.links.find(key(from, to));
      if (it != slot.links.end()) {
        merged.messages += it->second.messages;
        merged.bytes += it->second.bytes;
      }
    }
    return merged;
  }
  const auto it = links_.find(key(from, to));
  return it == links_.end() ? LinkStats{} : it->second.stats;
}

std::uint64_t Network::received_by(NodeId node) const noexcept {
  if (fabric_) {
    std::uint64_t total = 0;
    for (const auto& inbox : fabric_->inboxes)
      if (node < inbox->received.size()) total += inbox->received[node];
    return total;
  }
  return node < received_.size() ? received_[node] : 0;
}

}  // namespace cake::sim
