#include "cake/peer/peer.hpp"

#include <algorithm>
#include <type_traits>

namespace cake::peer {
namespace {

enum class Tag : std::uint8_t { Sub, Unsub, Event, Advertise, Unadvertise };

}  // namespace

sim::Network::Payload encode(const PeerPacket& packet) {
  wire::Writer w;
  if (const auto* sub = std::get_if<PeerSub>(&packet)) {
    w.u8(static_cast<std::uint8_t>(Tag::Sub));
    sub->filter.encode(w);
  } else if (const auto* unsub = std::get_if<PeerUnsub>(&packet)) {
    w.u8(static_cast<std::uint8_t>(Tag::Unsub));
    unsub->filter.encode(w);
  } else if (const auto* advert = std::get_if<PeerAdvertise>(&packet)) {
    w.u8(static_cast<std::uint8_t>(Tag::Advertise));
    advert->filter.encode(w);
  } else if (const auto* unadvert = std::get_if<PeerUnadvertise>(&packet)) {
    w.u8(static_cast<std::uint8_t>(Tag::Unadvertise));
    unadvert->filter.encode(w);
  } else {
    const auto& event = std::get<PeerEvent>(packet);
    w.u8(static_cast<std::uint8_t>(Tag::Event));
    w.varint(event.published_at);
    event.image.encode(w);
  }
  return wire::frame(w.bytes());
}

PeerPacket decode(std::span<const std::byte> payload) {
  wire::Reader r{wire::unframe(payload)};
  switch (static_cast<Tag>(r.u8())) {
    case Tag::Sub:
      return PeerSub{filter::ConjunctiveFilter::decode(r)};
    case Tag::Unsub:
      return PeerUnsub{filter::ConjunctiveFilter::decode(r)};
    case Tag::Advertise:
      return PeerAdvertise{filter::ConjunctiveFilter::decode(r)};
    case Tag::Unadvertise:
      return PeerUnadvertise{filter::ConjunctiveFilter::decode(r)};
    case Tag::Event: {
      PeerEvent event;
      event.published_at = r.varint();
      event.image = event::EventImage::decode(r);
      return event;
    }
  }
  throw wire::WireError{"peer: unknown message tag"};
}

PeerBroker::PeerBroker(sim::NodeId id, sim::Network& network,
                       const reflect::TypeRegistry& registry, PeerConfig config)
    : id_(id),
      network_(network),
      registry_(registry),
      config_(config),
      index_(index::make_index(config.engine, registry)) {}

void PeerBroker::start() {
  network_.attach(id_, [this](sim::NodeId from, const sim::Network::Payload& p) {
    on_packet(from, p);
  });
}

PeerBrokerStats PeerBroker::stats() const noexcept {
  PeerBrokerStats s = stats_;
  s.filters = entries_.size();
  return s;
}

std::size_t PeerBroker::advertised_to(sim::NodeId neighbor) const {
  const auto it = advertised_.find(neighbor);
  return it == advertised_.end() ? 0 : it->second.size();
}

void PeerBroker::on_packet(sim::NodeId from, const sim::Network::Payload& payload) {
  PeerPacket packet;
  try {
    packet = decode(payload);
  } catch (const wire::WireError&) {
    ++stats_.malformed_packets;
    return;
  }
  if (!std::holds_alternative<PeerEvent>(packet)) ++stats_.control_received;
  std::visit(
      [this, from, &payload](auto&& msg) {
        if constexpr (std::is_same_v<std::decay_t<decltype(msg)>, PeerEvent>) {
          handle(std::move(msg), from, payload);
        } else {
          handle(std::move(msg), from);
        }
      },
      std::move(packet));
}

void PeerBroker::handle(PeerSub&& msg, sim::NodeId from) {
  if (const auto it = by_filter_.find(msg.filter); it != by_filter_.end()) {
    Entry& entry = entries_.at(it->second);
    if (std::find(entry.origins.begin(), entry.origins.end(), from) ==
        entry.origins.end())
      entry.origins.push_back(from);
  } else {
    const index::FilterId fid = index_->add(msg.filter);
    by_filter_.emplace(msg.filter, fid);
    entries_.emplace(fid, Entry{std::move(msg.filter), {from}});
  }
  for (const sim::NodeId neighbor : neighbors_) resync_link(neighbor);
}

void PeerBroker::handle(PeerUnsub&& msg, sim::NodeId from) {
  const auto it = by_filter_.find(msg.filter);
  if (it == by_filter_.end()) return;
  Entry& entry = entries_.at(it->second);
  std::erase(entry.origins, from);
  if (entry.origins.empty()) {
    index_->remove(it->second);
    entries_.erase(it->second);
    by_filter_.erase(it);
  }
  for (const sim::NodeId neighbor : neighbors_) resync_link(neighbor);
}

void PeerBroker::handle(PeerAdvertise&& msg, sim::NodeId from) {
  for (Advert& advert : adverts_) {
    if (advert.filter != msg.filter) continue;
    if (std::find(advert.origins.begin(), advert.origins.end(), from) ==
        advert.origins.end())
      advert.origins.push_back(from);
    return;  // already flooded when first seen
  }
  adverts_.push_back(Advert{msg.filter, {from}});
  // Flood everywhere except the arrival link (acyclic: reaches each broker
  // once), then reconsider which subscriptions each link should carry.
  for (const sim::NodeId neighbor : neighbors_) {
    if (neighbor != from) send(neighbor, PeerAdvertise{msg.filter});
  }
  for (const sim::NodeId neighbor : neighbors_) resync_link(neighbor);
}

void PeerBroker::handle(PeerUnadvertise&& msg, sim::NodeId from) {
  for (auto it = adverts_.begin(); it != adverts_.end(); ++it) {
    if (it->filter != msg.filter) continue;
    std::erase(it->origins, from);
    if (it->origins.empty()) {
      adverts_.erase(it);
      for (const sim::NodeId neighbor : neighbors_) {
        if (neighbor != from) send(neighbor, PeerUnadvertise{msg.filter});
      }
    }
    break;
  }
  for (const sim::NodeId neighbor : neighbors_) resync_link(neighbor);
}

bool PeerBroker::demand_behind(sim::NodeId neighbor,
                               const filter::ConjunctiveFilter& f) const {
  if (!config_.use_advertisements) return true;
  for (const Advert& advert : adverts_) {
    if (std::find(advert.origins.begin(), advert.origins.end(), neighbor) ==
        advert.origins.end())
      continue;
    if (filter::overlaps(f, advert.filter, registry_)) return true;
  }
  return false;
}

void PeerBroker::handle(PeerEvent&& msg, sim::NodeId from,
                        const sim::Network::Payload& payload) {
  ++stats_.events_received;
  index_->match(msg.image, match_scratch_, scratch_);
  target_scratch_.clear();
  for (const index::FilterId fid : match_scratch_) {
    for (const sim::NodeId origin : entries_.at(fid).origins) {
      if (origin != from) target_scratch_.push_back(origin);
    }
  }
  std::sort(target_scratch_.begin(), target_scratch_.end());
  target_scratch_.erase(
      std::unique(target_scratch_.begin(), target_scratch_.end()),
      target_scratch_.end());
  if (target_scratch_.empty()) return;
  ++stats_.events_matched;
  for (const sim::NodeId target : target_scratch_) {
    network_.send(id_, target, payload);  // original frame, refcount copy
    ++stats_.events_forwarded;
  }
}

void PeerBroker::resync_link(sim::NodeId neighbor) {
  // A filter travels to `neighbor` iff somebody on another link (or a
  // local subscriber) wants it — and, under advertisement semantics, only
  // when a publisher behind that link might emit matching events.
  std::vector<filter::ConjunctiveFilter> needed;
  for (const auto& [fid, entry] : entries_) {
    if (!demand_behind(neighbor, entry.filter)) continue;
    for (const sim::NodeId origin : entry.origins) {
      if (origin != neighbor) {
        needed.push_back(entry.filter);
        break;
      }
    }
  }
  std::vector<filter::ConjunctiveFilter> target_list =
      config_.collapse_per_link ? weaken::collapse(std::move(needed), registry_)
                                : std::move(needed);
  std::unordered_set<filter::ConjunctiveFilter> target(
      std::make_move_iterator(target_list.begin()),
      std::make_move_iterator(target_list.end()));

  std::unordered_set<filter::ConjunctiveFilter>& current = advertised_[neighbor];
  for (const auto& f : current) {
    if (!target.contains(f)) send(neighbor, PeerUnsub{f});
  }
  for (const auto& f : target) {
    if (!current.contains(f)) send(neighbor, PeerSub{f});
  }
  current = std::move(target);
}

void PeerBroker::send(sim::NodeId to, const PeerPacket& packet) {
  network_.send(id_, to, encode(packet));
}

PeerSubscriber::PeerSubscriber(sim::NodeId id, sim::NodeId home,
                               sim::Network& network,
                               const runtime::Transport& transport,
                               const reflect::TypeRegistry& registry)
    : id_(id),
      home_(home),
      network_(network),
      transport_(transport),
      registry_(registry) {}

void PeerSubscriber::start() {
  network_.attach(id_, [this](sim::NodeId from, const sim::Network::Payload& p) {
    on_packet(from, p);
  });
}

void PeerSubscriber::subscribe(filter::ConjunctiveFilter exact, Handler handler) {
  if (const reflect::TypeInfo* type = registry_.find(exact.type().name.id))
    exact = exact.standard_form(*type);
  subs_.emplace_back(exact, std::move(handler));
  network_.send(id_, home_, encode(PeerPacket{PeerSub{std::move(exact)}}));
}

void PeerSubscriber::unsubscribe(const filter::ConjunctiveFilter& exact) {
  filter::ConjunctiveFilter form = exact;
  if (const reflect::TypeInfo* type = registry_.find(exact.type().name.id))
    form = exact.standard_form(*type);
  std::erase_if(subs_, [&](const auto& sub) { return sub.first == form; });
  network_.send(id_, home_, encode(PeerPacket{PeerUnsub{std::move(form)}}));
}

void PeerSubscriber::on_packet(sim::NodeId from,
                               const sim::Network::Payload& payload) {
  (void)from;
  PeerPacket packet;
  try {
    packet = decode(payload);
  } catch (const wire::WireError&) {
    return;
  }
  const auto* event = std::get_if<PeerEvent>(&packet);
  if (event == nullptr) return;
  ++received_;
  bool matched = false;
  for (const auto& [exact, handler] : subs_) {
    if (!exact.matches(event->image, registry_)) continue;
    matched = true;
    if (handler) handler(event->image);
  }
  if (matched) {
    ++delivered_;
    latency_.add(static_cast<double>(transport_.now() - event->published_at));
  }
}

void PeerPublisher::publish(event::EventImage image) {
  ++published_;
  network_.send(id_, home_,
                encode(PeerPacket{PeerEvent{std::move(image), transport_.now()}}));
}

void PeerPublisher::publish(const event::Event& event) {
  publish(event::image_of(event));
}

void PeerPublisher::advertise(filter::ConjunctiveFilter filter) {
  network_.send(id_, home_,
                encode(PeerPacket{PeerAdvertise{std::move(filter)}}));
}

void PeerPublisher::unadvertise(filter::ConjunctiveFilter filter) {
  network_.send(id_, home_,
                encode(PeerPacket{PeerUnadvertise{std::move(filter)}}));
}

PeerMesh::PeerMesh(std::size_t brokers, PeerConfig config, std::uint64_t seed,
                   const reflect::TypeRegistry& registry)
    : registry_(registry), rng_(seed), network_(scheduler_) {
  if (brokers == 0)
    throw std::invalid_argument{"PeerMesh: at least one broker required"};
  for (std::size_t i = 0; i < brokers; ++i) {
    brokers_.push_back(
        std::make_unique<PeerBroker>(next_id_++, network_, registry_, config));
  }
  // Random spanning tree: node i links to a uniformly random earlier node.
  for (std::size_t i = 1; i < brokers; ++i) {
    const std::size_t parent = rng_.below(i);
    brokers_[i]->add_neighbor(brokers_[parent]->id());
    brokers_[parent]->add_neighbor(brokers_[i]->id());
  }
  for (const auto& broker : brokers_) broker->start();
}

PeerSubscriber& PeerMesh::add_subscriber() {
  return add_subscriber(next_home_++ % brokers_.size());
}

PeerSubscriber& PeerMesh::add_subscriber(std::size_t broker_index) {
  subscribers_.push_back(std::make_unique<PeerSubscriber>(
      next_id_++, brokers_.at(broker_index)->id(), network_, transport_,
      registry_));
  subscribers_.back()->start();
  return *subscribers_.back();
}

PeerPublisher& PeerMesh::add_publisher() {
  return add_publisher(next_home_++ % brokers_.size());
}

PeerPublisher& PeerMesh::add_publisher(std::size_t broker_index) {
  publishers_.push_back(std::make_unique<PeerPublisher>(
      next_id_++, brokers_.at(broker_index)->id(), network_, transport_));
  return *publishers_.back();
}

}  // namespace cake::peer
