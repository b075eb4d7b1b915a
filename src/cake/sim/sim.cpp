#include "cake/sim/sim.hpp"

#include <algorithm>
#include <stdexcept>

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
  return links_.try_emplace(key(from, to), Link{{}, default_latency_});
}

void Network::set_latency(NodeId from, NodeId to, Time latency) {
  link_record(from, to).latency = latency;
}

void Network::set_interceptor(Interceptor interceptor) {
  if (fabric_ && interceptor)
    throw std::logic_error{"sim: interceptors are sim-only, not fabric mode"};
  interceptor_ = std::move(interceptor);
}

void Network::bind_lanes(runtime::ThreadedTransport& transport) {
  if (fabric_) throw std::logic_error{"sim: lanes already bound"};
  if (loss_rate_ > 0.0 || interceptor_)
    throw std::logic_error{
        "sim: fabric mode excludes loss/interceptors (chaos runs on the "
        "virtual-time oracle)"};
  fabric_ = std::make_unique<Fabric>(transport.workers());
  fabric_->transport = &transport;
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

void Network::threaded_send(NodeId from, NodeId to, Payload payload,
                            const LinkTag& tag) {
  Fabric& f = *fabric_;
  const std::size_t size = payload.size() + tag.wire_bytes();
  const std::size_t self = runtime::current_lane();
  f.messages.add(self, 1);
  f.bytes.add(self, size);
  {
    const std::size_t i = std::min(self, f.slots.size() - 1);
    std::unique_lock lock{f.overflow_mutex, std::defer_lock};
    if (i + 1 == f.slots.size()) lock.lock();  // an outside thread
    LinkStats& stats = f.slots[i].links.try_emplace(key(from, to)).stats;
    ++stats.messages;
    stats.bytes += size;
  }
  // One frame, one 64-byte lane task on lane `to % workers`.
  Delivery d{from, to, std::move(payload), tag};
  f.transport->post(to, runtime::LaneTask{[this, d = std::move(d)] {
                      deliver_on_lane(d);
                    }});
}

void Network::deliver_on_lane(const Delivery& d) {
  LaneSlot& slot = fabric_->slots[runtime::current_lane()];
  // The handler table is lane-safe (see attach), so the lookup needs no lock.
  TaggedHandler* handler = handler_of(d.to);
  if (handler == nullptr) {
    ++slot.undeliverable;
    return;
  }
  ++slot.delivered;
  if (d.to >= slot.received.size()) slot.received.resize(d.to + std::size_t{1});
  ++slot.received[d.to];
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
  for (const LaneSlot& slot : fabric_->slots) total += slot.delivered;
  return total;
}

std::uint64_t Network::undeliverable() const noexcept {
  if (!fabric_) return undeliverable_;
  std::uint64_t total = 0;
  for (const LaneSlot& slot : fabric_->slots) total += slot.undeliverable;
  return total;
}

std::uint64_t Network::help_drained() const noexcept {
  return fabric_ ? fabric_->transport->stats().deferred : 0;
}

LinkStats Network::link(NodeId from, NodeId to) const noexcept {
  if (fabric_) {
    LinkStats merged;
    for (const LaneSlot& slot : fabric_->slots) {
      if (const Link* link = slot.links.find(key(from, to))) {
        merged.messages += link->stats.messages;
        merged.bytes += link->stats.bytes;
      }
    }
    return merged;
  }
  const Link* link = links_.find(key(from, to));
  return link == nullptr ? LinkStats{} : link->stats;
}

std::uint64_t Network::received_by(NodeId node) const noexcept {
  if (fabric_) {
    std::uint64_t total = 0;
    for (const LaneSlot& slot : fabric_->slots)
      if (node < slot.received.size()) total += slot.received[node];
    return total;
  }
  return node < received_.size() ? received_[node] : 0;
}

}  // namespace cake::sim
