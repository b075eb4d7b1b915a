// Unit tests for the binary wire substrate.
#include "cake/wire/wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cake/wire/crc32c.hpp"

namespace cake::wire {
namespace {

using value::Value;

TEST(Wire, U8RoundTrip) {
  Writer w;
  w.u8(0);
  w.u8(127);
  w.u8(255);
  Reader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.u8(), 127);
  EXPECT_EQ(r.u8(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Wire, VarintRoundTripEdges) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  Writer w;
  for (const auto v : cases) w.varint(v);
  Reader r{w.bytes()};
  for (const auto v : cases) EXPECT_EQ(r.varint(), v);
}

TEST(Wire, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Wire, ZigzagRoundTripEdges) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -2,
                                63,
                                -64,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  Writer w;
  for (const auto v : cases) w.zigzag(v);
  Reader r{w.bytes()};
  for (const auto v : cases) EXPECT_EQ(r.zigzag(), v);
}

TEST(Wire, SmallMagnitudeSignedStaysSmall) {
  Writer w;
  w.zigzag(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Wire, F64RoundTrip) {
  const double cases[] = {0.0, -0.0, 1.5, -123.25, 1e300, -1e-300};
  Writer w;
  for (const auto v : cases) w.f64(v);
  Reader r{w.bytes()};
  for (const auto v : cases) EXPECT_EQ(r.f64(), v);
}

TEST(Wire, StringRoundTrip) {
  Writer w;
  w.string("");
  w.string("hello");
  w.string(std::string(1000, 'x'));
  Reader r{w.bytes()};
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.string(), std::string(1000, 'x'));
}

TEST(Wire, StringWithEmbeddedNul) {
  std::string s = "a";
  s.push_back('\0');
  s += "b";
  Writer w;
  w.string(s);
  Reader r{w.bytes()};
  EXPECT_EQ(r.string(), s);
}

TEST(Wire, ValueRoundTripAllKinds) {
  const Value cases[] = {Value{}, Value{true}, Value{false}, Value{-42},
                         Value{3.75}, Value{"abc"}};
  Writer w;
  for (const auto& v : cases) w.value(v);
  Reader r{w.bytes()};
  for (const auto& v : cases) EXPECT_EQ(r.value(), v);
}

TEST(Wire, TruncatedInputThrows) {
  Writer w;
  w.string("hello");
  auto bytes = w.bytes();
  bytes.pop_back();
  Reader r{bytes};
  EXPECT_THROW((void)r.string(), WireError);
}

TEST(Wire, EmptyReaderThrowsOnAnyRead) {
  Reader r{std::span<const std::byte>{}};
  EXPECT_THROW((void)r.u8(), WireError);
  Reader r2{std::span<const std::byte>{}};
  EXPECT_THROW((void)r2.varint(), WireError);
  Reader r3{std::span<const std::byte>{}};
  EXPECT_THROW((void)r3.f64(), WireError);
}

TEST(Wire, OverlongVarintThrows) {
  Writer w;
  for (int i = 0; i < 11; ++i) w.u8(0x80);
  Reader r{w.bytes()};
  EXPECT_THROW((void)r.varint(), WireError);
}

TEST(Wire, UnknownValueKindThrows) {
  Writer w;
  w.u8(99);
  Reader r{w.bytes()};
  EXPECT_THROW((void)r.value(), WireError);
}

TEST(Wire, Fnv1aKnownVectors) {
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
  const auto bytes = std::as_bytes(std::span{"a", 1});
  EXPECT_EQ(fnv1a(bytes), 0xaf63dc4c8601ec8cULL);
}

// The check value every CRC32C implementation publishes (RFC 3720 B.4).
TEST(Crc32c, CheckValueOfTheNineDigits) {
  EXPECT_EQ(crc32c(std::as_bytes(std::span{"123456789", 9})), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

// The word-at-a-time loop agrees with the one-byte-at-a-time definition at
// every length and alignment, and extends a running checksum across splits.
TEST(Crc32c, MatchesTheBytewiseDefinitionAtEveryLengthAndOffset) {
  const auto bytewise = [](std::span<const std::byte> bytes) {
    std::uint32_t crc = ~0u;
    for (const std::byte b : bytes) {
      crc ^= static_cast<std::uint32_t>(b);
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    return ~crc;
  };
  std::array<std::byte, 308> buffer{};
  std::uint32_t x = 0x2545F491u;
  for (std::byte& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::byte> bytes{buffer.data() + offset, len};
      const std::uint32_t want = bytewise(bytes);
      ASSERT_EQ(crc32c(bytes), want) << "offset " << offset << " length " << len;
      const std::size_t cut = len / 3;
      ASSERT_EQ(crc32c(bytes.subspan(cut), crc32c(bytes.first(cut))), want)
          << "offset " << offset << " length " << len << " split at " << cut;
    }
  }
}

TEST(Wire, FrameRoundTrip) {
  Writer w;
  w.string("payload");
  const auto framed = frame(w.bytes());
  const auto payload = unframe(framed);  // borrowed view into `framed`
  ASSERT_EQ(payload.size(), w.bytes().size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), w.bytes().begin()));
}

TEST(Wire, EmptyPayloadFrames) {
  const auto framed = frame({});
  EXPECT_TRUE(unframe(framed).empty());
}

TEST(Wire, CorruptChecksumDetected) {
  Writer w;
  w.string("data");
  auto framed = frame(w.bytes());
  framed[2] ^= std::byte{0xff};  // flip a payload bit
  EXPECT_THROW((void)unframe(framed), WireError);
}

TEST(Wire, TruncatedFrameDetected) {
  Writer w;
  w.string("data");
  auto framed = frame(w.bytes());
  framed.resize(framed.size() - 3);
  EXPECT_THROW((void)unframe(framed), WireError);
}

// A pooled, in-place frame, as the event path builds them.
Frame pooled_frame(std::string_view text) {
  Writer w = Writer::pooled();
  w.begin_frame();
  w.string(text);
  return w.end_frame();
}

// The same bytes with one payload bit flipped, in a fresh buffer.
std::vector<std::byte> corrupted(const Frame& f) {
  std::vector<std::byte> bytes{f.begin(), f.end()};
  bytes[2] ^= std::byte{0x01};
  return bytes;
}

TEST(Wire, UnframeOnceAgreesWithUnframe) {
  const Frame f = pooled_frame("payload");
  const auto full = unframe(f.bytes());
  for (const Frame& receiver : std::vector<Frame>(3, f)) {
    const auto once = unframe_once(receiver);
    EXPECT_EQ(once.data(), full.data());
    EXPECT_EQ(once.size(), full.size());
  }
}

TEST(Wire, UnframeOnceRejectsAFreshCorruptedCopyAtEveryReceiver) {
  const Frame good = pooled_frame("payload");
  (void)unframe_once(good);  // verified: the verdict covers these bytes only
  const Frame bad{corrupted(good)};
  // Fan-out hands every receiver a reference to the one corrupt buffer.
  for (const Frame& receiver : std::vector<Frame>(3, bad))
    EXPECT_THROW((void)unframe_once(receiver), WireError);
  EXPECT_NO_THROW((void)unframe_once(good));
}

TEST(Wire, UnframeOnceNeverMemoizesAFailedCheck) {
  const Frame bad{corrupted(pooled_frame("payload"))};
  for (int i = 0; i < 3; ++i) EXPECT_THROW((void)unframe_once(bad), WireError);
  EXPECT_THROW((void)unframe_once(Frame{}), WireError);
}

TEST(Wire, RecycledFrameHolderStartsUnverified) {
  std::vector<std::byte> bad_bytes;
  {
    const Frame good = pooled_frame("payload");
    (void)unframe_once(good);
    bad_bytes = corrupted(good);
  }  // last reference gone: the verified node returns to the freelist
  // The thread-local freelist is LIFO, so this frame reuses that node.
  const Frame bad{std::move(bad_bytes)};
  EXPECT_THROW((void)unframe_once(bad), WireError);
}

// A toy per-frame memo: the payload length, and how often it was filled.
struct LengthMemo final : FrameMemo {
  std::size_t length = 0;
  int fills = 0;
};

const LengthMemo& length_of(const Frame& f) {
  return memoize<LengthMemo>(f, [&f](LengthMemo& memo) {
    memo.length = unframe_once(f).size();
    ++memo.fills;
  });
}

TEST(FrameMemo, FilledOnceAndSharedByEveryCopyOfTheFrame) {
  const Frame f = pooled_frame("payload");
  const LengthMemo& first = length_of(f);
  for (const Frame& receiver : std::vector<Frame>(3, f))
    EXPECT_EQ(&length_of(receiver), &first);
  EXPECT_EQ(first.length, unframe(f.bytes()).size());
  EXPECT_EQ(first.fills, 1);
}

TEST(FrameMemo, AFailedFillIsNeverMemoized) {
  const Frame bad{corrupted(pooled_frame("payload"))};
  for (int i = 0; i < 3; ++i) EXPECT_THROW((void)length_of(bad), WireError);
}

TEST(FrameMemo, RecycledHolderRefillsTheMemoItKeeps) {
  const LengthMemo* kept = nullptr;
  {
    const Frame a = pooled_frame("payload");
    kept = &length_of(a);
  }  // last reference gone: the node and its memo return to the freelist
  const Frame b = pooled_frame("a longer payload");
  const LengthMemo& memo = length_of(b);
  EXPECT_EQ(&memo, kept);  // LIFO freelist: same node, same memo object
  EXPECT_EQ(memo.length, unframe(b.bytes()).size());
  EXPECT_EQ(memo.fills, 2);
}

TEST(Wire, RawAppendsVerbatim) {
  Writer inner;
  inner.u8(1);
  inner.u8(2);
  Writer outer;
  outer.raw(inner.bytes());
  EXPECT_EQ(outer.bytes(), inner.bytes());
}


// The wire layout written the plainest way: one push_back per byte, the
// zigzag map spelled out by sign, FNV-1a by its definition. `Writer` must
// append the very same bytes however it batches them.
struct BytewiseWriter {
  std::vector<std::byte> out;

  void u8(std::uint8_t v) { out.push_back(static_cast<std::byte>(v)); }
  void varint(std::uint64_t v) {
    do {
      const auto low = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
      u8(v != 0 ? low | 0x80 : low);
    } while (v != 0);
  }
  void zigzag(std::int64_t v) {
    // 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...
    const auto bits = static_cast<std::uint64_t>(v);
    varint(v >= 0 ? bits * 2 : ~bits * 2 + 1);
  }
  void fixed64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { fixed64(std::bit_cast<std::uint64_t>(v)); }
  void string(std::string_view s) {
    varint(s.size());
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }
  // varint length, payload, FNV-1a 64 of the payload.
  [[nodiscard]] std::vector<std::byte> framed() const {
    BytewiseWriter f;
    f.varint(out.size());
    std::uint64_t sum = 0xcbf29ce484222325ULL;
    for (const std::byte b : out) {
      f.out.push_back(b);
      sum = (sum ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
    }
    f.fixed64(sum);
    return f.out;
  }
};

std::vector<std::byte> bytes_of(std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

TEST(Wire, WriterMatchesABytewiseReferenceWriter) {
  const std::uint64_t varints[] = {0,
                                   1,
                                   127,
                                   128,
                                   255,
                                   16383,
                                   16384,
                                   std::uint64_t{1} << 35,
                                   (std::uint64_t{1} << 35) - 1,
                                   std::uint64_t{1} << 63,
                                   std::numeric_limits<std::uint64_t>::max()};
  const std::int64_t zigzags[] = {0,
                                  -1,
                                  1,
                                  -64,
                                  63,
                                  -65,
                                  64,
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max(),
                                  std::numeric_limits<std::int64_t>::min() + 1};
  const double doubles[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::bit_cast<double>(0x7ff80000deadbeefULL),
                            std::bit_cast<double>(0xfff4000000000001ULL),
                            std::numeric_limits<double>::denorm_min(),
                            0.1};
  const std::string strings[] = {"", "a", std::string{"nul\0inside", 10},
                                 std::string(127, 's'), std::string(128, 'l'),
                                 std::string(20'000, 'w')};

  Writer w;
  BytewiseWriter ref;
  for (const std::uint64_t v : varints) {
    w.varint(v);
    ref.varint(v);
  }
  for (const std::int64_t v : zigzags) {
    w.zigzag(v);
    ref.zigzag(v);
  }
  for (const double v : doubles) {
    w.f64(v);
    ref.f64(v);
  }
  for (const std::string& s : strings) {
    w.string(s);
    ref.string(s);
    w.u8(0xa5);
    ref.u8(0xa5);
  }
  ASSERT_EQ(w.bytes(), ref.out);
  EXPECT_EQ(bytes_of(frame(w.bytes())), ref.framed());

  // Whole frames, framed in place into pooled buffers: payload lengths on
  // both sides of each length-varint width, checksum tail included.
  for (const std::size_t len : {0, 1, 127, 128, 300, 16'384}) {
    Writer fw = Writer::pooled();
    fw.begin_frame();
    BytewiseWriter payload;
    for (std::size_t i = 0; payload.out.size() < len; ++i) {
      const std::uint64_t v = (i * 0x9e3779b97f4a7c15ULL) >> (i % 64);
      if (payload.out.size() + 10 <= len && i % 3 == 0) {
        fw.varint(v);
        payload.varint(v);
      } else if (payload.out.size() + 8 <= len && i % 3 == 1) {
        fw.f64(std::bit_cast<double>(v));
        payload.f64(std::bit_cast<double>(v));
      } else {
        fw.u8(static_cast<std::uint8_t>(v));
        payload.u8(static_cast<std::uint8_t>(v));
      }
    }
    const Frame framed = fw.end_frame();
    EXPECT_EQ(bytes_of(framed.bytes()), payload.framed()) << "payload " << len;
    EXPECT_EQ(bytes_of(unframe(framed)), payload.out) << "payload " << len;
  }
}

}  // namespace
}  // namespace cake::wire
