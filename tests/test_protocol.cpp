// Round-trip tests for every overlay protocol message.
#include "cake/routing/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"

namespace cake::routing {
namespace {

using filter::ConjunctiveFilter;
using filter::FilterBuilder;
using filter::Op;
using value::Value;

ConjunctiveFilter sample_filter() {
  return FilterBuilder{"Stock"}
      .where("symbol", Op::Eq, Value{"DEF"})
      .where("price", Op::Lt, Value{10.0})
      .build();
}

template <class T>
T roundtrip(const T& msg) {
  const Packet decoded = decode(encode(Packet{msg}));
  return std::get<T>(decoded);
}

TEST(Protocol, AdvertiseRoundTrip) {
  const auto schema = workload::BiblioGenerator::schema();
  EXPECT_EQ(roundtrip(Advertise{schema}).schema, schema);
}

TEST(Protocol, SubscribeRoundTrip) {
  const Subscribe msg{sample_filter(), 42, 7};
  const Subscribe back = roundtrip(msg);
  EXPECT_EQ(back.filter, msg.filter);
  EXPECT_EQ(back.subscriber, 42u);
  EXPECT_EQ(back.token, 7u);
}

TEST(Protocol, JoinAtRoundTrip) {
  const JoinAt back = roundtrip(JoinAt{9, 123});
  EXPECT_EQ(back.target, 9u);
  EXPECT_EQ(back.token, 123u);
}

TEST(Protocol, AcceptedAtRoundTrip) {
  const AcceptedAt back = roundtrip(AcceptedAt{3, 5, sample_filter()});
  EXPECT_EQ(back.node, 3u);
  EXPECT_EQ(back.token, 5u);
  EXPECT_EQ(back.stored, sample_filter());
}

TEST(Protocol, ReqInsertRoundTrip) {
  const ReqInsert back = roundtrip(ReqInsert{sample_filter(), 11});
  EXPECT_EQ(back.filter, sample_filter());
  EXPECT_EQ(back.child, 11u);
}

TEST(Protocol, RenewRoundTrip) {
  const Renew back = roundtrip(Renew{sample_filter(), 6});
  EXPECT_EQ(back.filter, sample_filter());
  EXPECT_EQ(back.child, 6u);
}

TEST(Protocol, UnsubRoundTrip) {
  const Unsub back = roundtrip(Unsub{sample_filter(), 8});
  EXPECT_EQ(back.filter, sample_filter());
  EXPECT_EQ(back.child, 8u);
}

TEST(Protocol, EventMsgRoundTrip) {
  workload::BiblioGenerator gen{{}, 1};
  const event::EventImage image = gen.next_event();
  EXPECT_EQ(roundtrip(EventMsg{image}).image, image);
}

TEST(Protocol, CorruptFrameThrows) {
  auto bytes = encode(Packet{JoinAt{1, 2}});
  bytes.back() ^= std::byte{0x01};
  EXPECT_THROW((void)decode(bytes), wire::WireError);
}

TEST(Protocol, UnknownTagThrows) {
  wire::Writer w;
  w.u8(250);
  const auto framed = wire::frame(w.bytes());
  EXPECT_THROW((void)decode(framed), wire::WireError);
}

TEST(Protocol, SentinelNodeIdsSurvive) {
  const Subscribe back = roundtrip(Subscribe{sample_filter(), sim::kNoNode, 0});
  EXPECT_EQ(back.subscriber, sim::kNoNode);
}

// ---- decode fuzzing ---------------------------------------------------------
//
// One representative frame per variant; truncation at every byte offset and
// byte flips must raise wire::WireError — never crash, never silently decode
// into a different variant.

static_assert(std::variant_size_v<Packet> == kPacketClasses,
              "new packet variants must join the fuzz corpus below");

std::vector<Packet> fuzz_corpus() {
  workload::BiblioGenerator gen{{}, 2};
  return {Advertise{workload::BiblioGenerator::schema()},
          Subscribe{sample_filter(), 42, 7, true},
          JoinAt{9, 123},
          AcceptedAt{3, 5, sample_filter()},
          ReqInsert{sample_filter(), 11},
          Renew{sample_filter(), 6},
          Unsub{sample_filter(), 8},
          Expired{sample_filter()},
          Detach{4},
          Resume{4},
          EventMsg{gen.next_event(), 77, 0xABCDEFu}};
}

TEST(ProtocolFuzz, TruncationAtEveryOffsetThrows) {
  for (const Packet& packet : fuzz_corpus()) {
    const auto frame = encode(packet);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::vector<std::byte> cut(frame.begin(),
                                       frame.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW((void)decode(cut), wire::WireError)
          << "variant " << packet.index() << " truncated to " << len
          << " of " << frame.size() << " bytes";
    }
  }
}

TEST(ProtocolFuzz, SingleByteFlipsNeverMisdecode) {
  for (const Packet& packet : fuzz_corpus()) {
    const auto frame = encode(packet);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (const std::byte mask : {std::byte{0x01}, std::byte{0xff}}) {
        auto mutated = frame;
        mutated[i] ^= mask;
        try {
          const Packet back = decode(mutated);
          // A flip the checksum failed to catch may only yield the same
          // variant (possible in principle, never a silent reinterpretation).
          EXPECT_EQ(back.index(), packet.index())
              << "flip at byte " << i << " changed the decoded variant";
        } catch (const wire::WireError&) {
          // The expected outcome.
        }
      }
    }
  }
}

TEST(ProtocolFuzz, RandomMultiByteCorruptionThrowsOrPreservesVariant) {
  util::Rng rng{0xF00DULL};
  for (const Packet& packet : fuzz_corpus()) {
    const auto frame = encode(packet);
    for (int round = 0; round < 200; ++round) {
      auto mutated = frame;
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.below(mutated.size());
        mutated[at] ^= static_cast<std::byte>(1 + rng.below(255));
      }
      try {
        const Packet back = decode(mutated);
        EXPECT_EQ(back.index(), packet.index());
      } catch (const wire::WireError&) {
      }
    }
  }
}

// ---- packet classification (chaos per-type drop rules) ---------------------

TEST(Protocol, PacketClassPeeksTheWireTagOfEveryVariant) {
  // Variant order and wire-tag order differ at the tail (EventMsg encodes
  // as tag 7 for compatibility with its position in the original enum);
  // packet_class reports the *wire* tag.
  const std::vector<std::uint8_t> wire_tag_of_variant = {0, 1, 2, 3, 4, 5,
                                                         6, 8, 9, 10, 7};
  const std::vector<Packet> corpus = fuzz_corpus();
  ASSERT_EQ(corpus.size(), wire_tag_of_variant.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(packet_class(encode(corpus[i])), wire_tag_of_variant[i])
        << "variant " << i;
}

TEST(Protocol, PacketClassNamesAreDistinctAndKnown) {
  std::set<std::string_view> names;
  for (std::uint8_t cls = 0; cls < kPacketClasses; ++cls) {
    const std::string_view name = packet_class_name(cls);
    EXPECT_NE(name, "?") << "class " << int{cls};
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kPacketClasses);
  EXPECT_EQ(packet_class_name(kPacketClasses), "?");
  EXPECT_EQ(packet_class_name(0xff), "?");
}

TEST(Protocol, PacketClassIsSafeOnMalformedFrames) {
  EXPECT_EQ(packet_class({}), 0xff);
  const std::vector<std::byte> junk{std::byte{0x80}, std::byte{0x80},
                                    std::byte{0x80}};
  EXPECT_EQ(packet_class(junk), 0xff);  // unterminated varint
  auto frame = encode(Packet{Detach{4}});
  frame.resize(1);  // length byte only, no tag
  EXPECT_EQ(packet_class(frame), 0xff);
}


// An event whose non-attribute state crosses the wire as opaque bytes,
// longer than 127 so their length prefix takes two varint bytes.
class Stamped final : public event::EventOf<Stamped> {
public:
  Stamped(std::string note, double weight)
      : note_(std::move(note)), weight_(weight) {}
  void save_extra(wire::Writer& w) const override {
    w.string(note_);
    w.f64(weight_);
    w.zigzag(-3);
  }
  [[nodiscard]] const std::string& note() const noexcept { return note_; }
  [[nodiscard]] bool heavy() const noexcept { return weight_ > 1.0; }

private:
  std::string note_;
  double weight_;
};

void expect_frames_match(const event::Event& event, std::uint64_t n) {
  const sim::Time at = 1'000 * n;
  const std::uint64_t id = (std::uint64_t{3} << 32) | n;
  const std::uint64_t trace = n % 3 == 0 ? 0 : id;
  const sim::Network::Payload direct = encode_event_frame(event, at, id, trace);
  const event::EventImage image = event::image_of(event);
  const sim::Network::Payload via_image =
      encode_event_frame(image, at, id, trace);
  ASSERT_EQ(direct, via_image) << image.to_string();
  // And the copying control-path encoder agrees on the very same bytes.
  const std::vector<std::byte> copied =
      encode(Packet{EventMsg{image, at, id, trace}});
  ASSERT_TRUE(std::equal(copied.begin(), copied.end(), direct.begin(),
                         direct.end()))
      << image.to_string();
}

// The publisher encodes straight from the reflection getters; every event
// shape the generators make must come out byte for byte as the image path.
TEST(Protocol, EventFrameFromGettersMatchesTheImageFrame) {
  workload::ensure_types_registered();
  auto& registry = reflect::TypeRegistry::global();
  if (!registry.contains<Stamped>()) {
    reflect::TypeBuilder<Stamped>{registry, "Stamped"}
        .attr("note", &Stamped::note)
        .attr("heavy", &Stamped::heavy)
        .finalize();
  }
  std::uint64_t n = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    workload::BiblioGenerator biblio{workload::BiblioConfig{}, seed};
    workload::StockGenerator stocks{workload::StockConfig{}, seed};
    workload::AuctionGenerator auctions{workload::AuctionConfig{}, seed};
    for (int i = 0; i < 200; ++i) {
      expect_frames_match(workload::Publication{biblio.next_event()}, ++n);
      expect_frames_match(stocks.next(), ++n);
      expect_frames_match(*auctions.next(), ++n);
    }
  }
  expect_frames_match(workload::Stock{"", -0.0, 0}, ++n);
  expect_frames_match(Stamped{std::string(200, 'n'), 2.5}, ++n);
  expect_frames_match(Stamped{"", 0.5}, ++n);
  ASSERT_FALSE(event::image_of(Stamped{"x", 1.0}).opaque().empty());
}

}  // namespace
}  // namespace cake::routing
