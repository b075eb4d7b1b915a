// Overlay protocol messages (paper Fig. 5 plus event and advertisement
// traffic).
//
// Every message crossing a simulated link is one of these structs, encoded
// through the wire substrate into a checksummed frame. The variants map
// one-to-one onto the paper's algorithm:
//
//   Advertise   — publisher announces an event class and its G_c schema
//   Subscribe   — "Send Subscription(fsub)" from a subscriber to a node
//   JoinAt      — "join-At(id)" redirect during the covering search
//   AcceptedAt  — "accepted-At(node)"; carries the stored (weakened) filter
//                 back so the subscriber can renew/unsubscribe it precisely
//   ReqInsert   — "req-Insert(fc, idc)" child -> parent filter installation;
//                 re-sending refreshes the TTL (renewal-by-reinsertion)
//   Renew       — subscriber-side lease renewal of one stored filter
//   Unsub       — explicit unsubscription (the §4.3 optional optimization)
//   Expired     — broker tells a renewing child its lease is gone (lost
//                 renewals, reapings during partitions); the child re-joins
//   Detach      — a durable subscriber announces a planned disconnection;
//                 its hosting broker buffers matching events (§2.1 "storing
//                 events for temporarily disconnected subscribers")
//   Resume      — the durable subscriber is back; buffered events replay
//   EventMsg    — a published event image travelling down the hierarchy
#pragma once

#include <string_view>
#include <variant>

#include "cake/filter/filter.hpp"
#include "cake/link/link.hpp"
#include "cake/sim/sim.hpp"
#include "cake/weaken/schema.hpp"

namespace cake::routing {

struct Advertise {
  weaken::StageSchema schema;
};

/// "No replay requested" sentinel for Subscribe::replay_from. Encoded as an
/// *absent* trailing field, so pre-journal peers stay byte-compatible.
inline constexpr std::uint64_t kNoReplay = ~0ull;

struct Subscribe {
  filter::ConjunctiveFilter filter;  // exact, standard form
  sim::NodeId subscriber = sim::kNoNode;
  std::uint64_t token = 0;  // correlates the join conversation
  bool durable = false;     // buffer events while the subscriber is detached
  /// Journal offset to replay matching events from once the subscription is
  /// accepted (late-joiner catch-up, DESIGN.md §12). kNoReplay = none.
  std::uint64_t replay_from = kNoReplay;
};

struct JoinAt {
  sim::NodeId target = sim::kNoNode;
  std::uint64_t token = 0;
};

struct AcceptedAt {
  sim::NodeId node = sim::kNoNode;
  std::uint64_t token = 0;
  filter::ConjunctiveFilter stored;  // weakened form kept at `node`
};

struct ReqInsert {
  filter::ConjunctiveFilter filter;  // weakened for the receiver's stage
  sim::NodeId child = sim::kNoNode;
};

struct Renew {
  filter::ConjunctiveFilter filter;
  sim::NodeId child = sim::kNoNode;
};

struct Unsub {
  filter::ConjunctiveFilter filter;
  sim::NodeId child = sim::kNoNode;
};

struct Expired {
  filter::ConjunctiveFilter filter;  // the lease the broker no longer holds
};

struct Detach {
  sim::NodeId child = sim::kNoNode;
};

struct Resume {
  sim::NodeId child = sim::kNoNode;
};

struct EventMsg {
  event::EventImage image;
  sim::Time published_at = 0;  ///< publisher's virtual clock at publish()
  /// Unique per published event (publisher id in the high bits, sequence
  /// in the low bits); lets subscribers deduplicate multi-path deliveries
  /// of composite subscriptions.
  std::uint64_t event_id = 0;
  /// Per-event trace id (trace/trace.hpp), stamped by the publisher for
  /// sampled events and propagated unchanged down every hop. 0 = untraced:
  /// brokers and subscribers emit a span only when non-zero, so the
  /// disabled/unsampled hot path costs one integer compare per hop.
  std::uint64_t trace_id = 0;
  /// `filter::signature(image)`, filled once per frame by the decode memo
  /// and read by every subscriber's prefilter. Not on the wire. The default
  /// sets every bit, which prunes nothing, so a message built any other way
  /// can never lose a delivery.
  std::uint64_t signature = ~std::uint64_t{0};
};

/// Link-layer control packets (PR 5). Owned by `link::` — the link module
/// frames them itself on its hot paths — and re-exported here so they decode
/// through the one Packet variant like everything else on the wire:
///
///   Ack       — cumulative acknowledgement of a sequenced stream
///   Nack      — gap report / stream-resync request
///   Heartbeat — liveness probe and its echo
///   Credit    — receiver flow-control grant for event frames (PR 10)
using Ack = link::Ack;
using Nack = link::Nack;
using Heartbeat = link::Heartbeat;
using Credit = link::Credit;

using Packet = std::variant<Advertise, Subscribe, JoinAt, AcceptedAt,
                            ReqInsert, Renew, Unsub, Expired, Detach, Resume,
                            EventMsg, Ack, Nack, Heartbeat, Credit>;

/// Serializes a packet straight into a pooled, refcounted checksummed
/// frame ready for Network::send: no payload copy, no fresh buffer.
[[nodiscard]] sim::Network::Payload encode_frame(const Packet& packet);

/// The bytes of `encode_frame(packet)` as a plain, mutable vector (tests).
[[nodiscard]] std::vector<std::byte> encode(const Packet& packet);

/// Serializes an EventMsg-class packet straight into a pooled, refcounted
/// frame — byte-identical to `encode(EventMsg{...})` but without building
/// the EventMsg.
[[nodiscard]] sim::Network::Payload encode_event_frame(
    const event::EventImage& image, sim::Time published_at,
    std::uint64_t event_id, std::uint64_t trace_id);
/// Same, encoding the image straight from the event's reflection getters
/// (`event::encode_image`): byte-identical to the overload above fed
/// `image_of(event)`, with no image built.
[[nodiscard]] sim::Network::Payload encode_event_frame(
    const event::Event& event, sim::Time published_at,
    std::uint64_t event_id, std::uint64_t trace_id);

/// Parses a frame; throws wire::WireError on corruption or unknown tags.
[[nodiscard]] Packet decode(std::span<const std::byte> payload);

/// `decode` for a received refcounted frame: the checksum is checked once
/// per frame (`wire::unframe_once`), not once per receiver.
[[nodiscard]] Packet decode_once(const sim::Network::Payload& frame);

/// Decodes an EventMsg frame at most once per frame: the first receiver
/// decodes it into a memo on the refcounted buffer (`wire::memoize`), and
/// every later hop or subscriber holding the same frame reads that memo.
/// The result is owned (strings included) and lives as long as the frame,
/// so a caller holding `frame` may use it for the whole call. Throws
/// wire::WireError on corruption or when the frame is not an EventMsg; a
/// failed decode is not memoized.
[[nodiscard]] const EventMsg& decode_event_once(
    const sim::Network::Payload& frame);

/// Number of distinct packet classes (== std::variant_size_v<Packet>).
inline constexpr std::uint8_t kPacketClasses = 15;

/// Wire tag of EventMsg frames (checked against the Tag enum in
/// protocol.cpp). Receivers peek this to send event traffic through
/// `decode_event_once` instead of the Packet decode.
inline constexpr std::uint8_t kEventPacketClass = 7;

/// Peeks the wire tag of a framed packet without validating the checksum —
/// cheap enough for the chaos engine's per-packet-type drop rules to call
/// on every send. Returns 0xff (sim::FaultOp::kAnyType) for frames too
/// short or malformed to carry a tag.
[[nodiscard]] std::uint8_t packet_class(std::span<const std::byte> frame) noexcept;

/// Human-readable name of a packet class ("Subscribe", ...), "?" if unknown.
[[nodiscard]] std::string_view packet_class_name(std::uint8_t cls) noexcept;

}  // namespace cake::routing
