#include "cake/routing/protocol.hpp"

namespace cake::routing {
namespace {

enum class Tag : std::uint8_t {
  Advertise,
  Subscribe,
  JoinAt,
  AcceptedAt,
  ReqInsert,
  Renew,
  Unsub,
  Event,
  Expired,
  Detach,
  Resume,
  Ack,
  Nack,
  Heartbeat,
  Credit,
};

// The link module frames its own control packets on the ack/heartbeat hot
// paths (pooled, allocation-free); routing only needs to agree on the tag
// values so decode() and the chaos classifier see one coherent tag space.
static_assert(static_cast<std::uint8_t>(Tag::Ack) == link::kAckTag);
static_assert(static_cast<std::uint8_t>(Tag::Nack) == link::kNackTag);
static_assert(static_cast<std::uint8_t>(Tag::Heartbeat) == link::kHeartbeatTag);
static_assert(static_cast<std::uint8_t>(Tag::Credit) == link::kCreditTag);

/// The EventMsg fields ahead of its image, tag included.
void write_event_header(wire::Writer& w, sim::Time published_at,
                        std::uint64_t event_id, std::uint64_t trace_id) {
  w.u8(static_cast<std::uint8_t>(Tag::Event));
  w.varint(published_at);
  w.varint(event_id);
  w.varint(trace_id);
}

/// A frame of what `body(writer)` writes, framed in place into a pooled
/// buffer.
template <class Body>
sim::Network::Payload pooled_frame(Body&& body) {
  wire::Writer w = wire::Writer::pooled();
  w.begin_frame();
  body(w);
  return w.end_frame();
}

struct Encoder {
  wire::Writer& w;

  void operator()(const Advertise& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Advertise));
    m.schema.encode(w);
  }
  void operator()(const Subscribe& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Subscribe));
    m.filter.encode(w);
    w.varint(m.subscriber);
    w.varint(m.token);
    w.u8(m.durable ? 1 : 0);
    // Optional trailing field: absent == kNoReplay, so subscriptions that
    // request no replay encode byte-identically to the pre-journal format.
    if (m.replay_from != kNoReplay) w.varint(m.replay_from);
  }
  void operator()(const JoinAt& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::JoinAt));
    w.varint(m.target);
    w.varint(m.token);
  }
  void operator()(const AcceptedAt& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::AcceptedAt));
    w.varint(m.node);
    w.varint(m.token);
    m.stored.encode(w);
  }
  void operator()(const ReqInsert& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::ReqInsert));
    m.filter.encode(w);
    w.varint(m.child);
  }
  void operator()(const Renew& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Renew));
    m.filter.encode(w);
    w.varint(m.child);
  }
  void operator()(const Unsub& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Unsub));
    m.filter.encode(w);
    w.varint(m.child);
  }
  void operator()(const Expired& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Expired));
    m.filter.encode(w);
  }
  void operator()(const Detach& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Detach));
    w.varint(m.child);
  }
  void operator()(const Resume& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Resume));
    w.varint(m.child);
  }
  void operator()(const EventMsg& m) const {
    write_event_header(w, m.published_at, m.event_id, m.trace_id);
    m.image.encode(w);
  }
  void operator()(const Ack& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Ack));
    link::encode_fields(w, m);
  }
  void operator()(const Nack& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Nack));
    link::encode_fields(w, m);
  }
  void operator()(const Heartbeat& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Heartbeat));
    link::encode_fields(w, m);
  }
  void operator()(const Credit& m) const {
    w.u8(static_cast<std::uint8_t>(Tag::Credit));
    link::encode_fields(w, m);
  }
};

static_assert(std::variant_size_v<Packet> == kPacketClasses,
              "packet_class/packet_class_name must cover every variant");
static_assert(static_cast<std::uint8_t>(Tag::Event) == kEventPacketClass,
              "kEventPacketClass must track the Tag enum");

}  // namespace

sim::Network::Payload encode_frame(const Packet& packet) {
  return pooled_frame(
      [&packet](wire::Writer& w) { std::visit(Encoder{w}, packet); });
}

std::vector<std::byte> encode(const Packet& packet) {
  const sim::Network::Payload frame = encode_frame(packet);
  return {frame.begin(), frame.end()};
}

sim::Network::Payload encode_event_frame(const event::EventImage& image,
                                         sim::Time published_at,
                                         std::uint64_t event_id,
                                         std::uint64_t trace_id) {
  return pooled_frame([&](wire::Writer& w) {
    write_event_header(w, published_at, event_id, trace_id);
    image.encode(w);
  });
}

sim::Network::Payload encode_event_frame(const event::Event& event,
                                         sim::Time published_at,
                                         std::uint64_t event_id,
                                         std::uint64_t trace_id) {
  return pooled_frame([&](wire::Writer& w) {
    write_event_header(w, published_at, event_id, trace_id);
    event::encode_image(event, w);
  });
}

namespace {

/// The fields of an EventMsg after its tag, decoded into `m` (reusing its
/// image's capacity), plus the image's prefilter signature.
void read_event(wire::Reader& r, EventMsg& m) {
  m.published_at = r.varint();
  m.event_id = r.varint();
  m.trace_id = r.varint();
  m.image.decode_into(r);
  m.signature = filter::signature(m.image);
}

/// The per-frame memo of an EventMsg frame (`decode_event_once`).
struct EventMemo final : wire::FrameMemo {
  EventMsg msg;
};

Packet decode_payload(wire::Reader r) {
  switch (static_cast<Tag>(r.u8())) {
    case Tag::Advertise:
      return Advertise{weaken::StageSchema::decode(r)};
    case Tag::Subscribe: {
      Subscribe m;
      m.filter = filter::ConjunctiveFilter::decode(r);
      m.subscriber = static_cast<sim::NodeId>(r.varint());
      m.token = r.varint();
      m.durable = r.u8() != 0;
      if (!r.done()) m.replay_from = r.varint();
      return m;
    }
    case Tag::JoinAt: {
      JoinAt m;
      m.target = static_cast<sim::NodeId>(r.varint());
      m.token = r.varint();
      return m;
    }
    case Tag::AcceptedAt: {
      AcceptedAt m;
      m.node = static_cast<sim::NodeId>(r.varint());
      m.token = r.varint();
      m.stored = filter::ConjunctiveFilter::decode(r);
      return m;
    }
    case Tag::ReqInsert: {
      ReqInsert m;
      m.filter = filter::ConjunctiveFilter::decode(r);
      m.child = static_cast<sim::NodeId>(r.varint());
      return m;
    }
    case Tag::Renew: {
      Renew m;
      m.filter = filter::ConjunctiveFilter::decode(r);
      m.child = static_cast<sim::NodeId>(r.varint());
      return m;
    }
    case Tag::Unsub: {
      Unsub m;
      m.filter = filter::ConjunctiveFilter::decode(r);
      m.child = static_cast<sim::NodeId>(r.varint());
      return m;
    }
    case Tag::Expired:
      return Expired{filter::ConjunctiveFilter::decode(r)};
    case Tag::Detach:
      return Detach{static_cast<sim::NodeId>(r.varint())};
    case Tag::Resume:
      return Resume{static_cast<sim::NodeId>(r.varint())};
    case Tag::Event: {
      EventMsg m;
      read_event(r, m);
      return m;
    }
    case Tag::Ack:
      return link::decode_ack_fields(r);
    case Tag::Nack:
      return link::decode_nack_fields(r);
    case Tag::Heartbeat:
      return link::decode_heartbeat_fields(r);
    case Tag::Credit:
      return link::decode_credit_fields(r);
  }
  throw wire::WireError{"protocol: unknown message tag"};
}

}  // namespace

Packet decode(std::span<const std::byte> payload) {
  return decode_payload(wire::Reader{wire::unframe(payload)});
}

Packet decode_once(const sim::Network::Payload& frame) {
  return decode_payload(wire::Reader{wire::unframe_once(frame)});
}

const EventMsg& decode_event_once(const sim::Network::Payload& frame) {
  if (frame.empty()) throw wire::WireError{"protocol: empty frame"};
  return wire::memoize<EventMemo>(frame, [&frame](EventMemo& memo) {
           wire::Reader r{wire::unframe_once(frame)};
           if (static_cast<Tag>(r.u8()) != Tag::Event)
             throw wire::WireError{"protocol: not an event frame"};
           read_event(r, memo.msg);
         }).msg;
}

std::uint8_t packet_class(std::span<const std::byte> frame) noexcept {
  // A frame is varint(len) + payload + 8-byte checksum; the payload's first
  // byte is the tag. Walk the varint by hand — no allocation, no checksum.
  std::size_t pos = 0;
  bool terminated = false;
  for (int i = 0; i < 10 && !terminated; ++i) {
    if (pos >= frame.size()) return 0xff;
    terminated = (static_cast<std::uint8_t>(frame[pos++]) & 0x80) == 0;
  }
  if (!terminated || pos >= frame.size()) return 0xff;
  const auto tag = static_cast<std::uint8_t>(frame[pos]);
  return tag < kPacketClasses ? tag : 0xff;
}

std::string_view packet_class_name(std::uint8_t cls) noexcept {
  switch (static_cast<Tag>(cls)) {
    case Tag::Advertise: return "Advertise";
    case Tag::Subscribe: return "Subscribe";
    case Tag::JoinAt: return "JoinAt";
    case Tag::AcceptedAt: return "AcceptedAt";
    case Tag::ReqInsert: return "ReqInsert";
    case Tag::Renew: return "Renew";
    case Tag::Unsub: return "Unsub";
    case Tag::Event: return "EventMsg";
    case Tag::Expired: return "Expired";
    case Tag::Detach: return "Detach";
    case Tag::Resume: return "Resume";
    case Tag::Ack: return "Ack";
    case Tag::Nack: return "Nack";
    case Tag::Heartbeat: return "Heartbeat";
    case Tag::Credit: return "Credit";
  }
  return "?";
}

}  // namespace cake::routing
