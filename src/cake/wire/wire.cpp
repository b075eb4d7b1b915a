#include "cake/wire/wire.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>

namespace cake::wire {

using value::Kind;
using value::Value;

namespace {

// Widest length prefix end_frame ever needs: 5 varint bytes cover payloads
// up to 2^35-1, far beyond any packet this system frames.
constexpr std::size_t kLenGap = 5;

// Widest LEB128 varint: 10 bytes hold 64 bits.
constexpr std::size_t kMaxVarint = 10;

/// Writes `v` as a LEB128 varint into `out`; returns the bytes written.
std::size_t put_varint(std::byte* out, std::uint64_t v) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::byte>(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out[n++] = static_cast<std::byte>(v);
  return n;
}

/// `v` little-endian, the f64 and checksum layout.
std::array<std::byte, 8> le64(std::uint64_t v) noexcept {
  std::array<std::byte, 8> out{};
  for (std::size_t i = 0; i < 8; ++i)
    out[i] = static_cast<std::byte>(static_cast<std::uint8_t>(v >> (8 * i)));
  return out;
}

}  // namespace

Writer Writer::pooled() {
  Writer w;
  w.buf_ = acquire_buffer();
  return w;
}

void Writer::varint(std::uint64_t v) {
  if (v < 0x80) {
    u8(static_cast<std::uint8_t>(v));
    return;
  }
  std::byte bytes[kMaxVarint]{};
  buf_.insert(buf_.end(), bytes, bytes + put_varint(bytes, v));
}

void Writer::zigzag(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  raw(le64(std::bit_cast<std::uint64_t>(v)));
}

void Writer::string(std::string_view s) {
  varint(s.size());
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void Writer::value(const Value& v) {
  u8(static_cast<std::uint8_t>(v.kind()));
  switch (v.kind()) {
    case Kind::Null: break;
    case Kind::Bool: u8(v.as_bool() ? 1 : 0); break;
    case Kind::Int: zigzag(v.as_int()); break;
    case Kind::Double: f64(v.as_double()); break;
    case Kind::String: string(v.as_string_view()); break;
  }
}

void Writer::raw(std::span<const std::byte> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Writer::begin_frame() {
  assert(buf_.empty() && !framing_);
  buf_.resize(kLenGap);  // slack for the back-filled length varint
  framing_ = true;
}

Frame Writer::end_frame() {
  assert(framing_);
  framing_ = false;
  const std::size_t payload_len = buf_.size() - kLenGap;
  raw(le64(fnv1a(
      std::span<const std::byte>{buf_.data() + kLenGap, payload_len})));
  // Right-align the minimal varint inside the gap so the frame's visible
  // bytes match `frame()` exactly; the Frame offset skips the slack.
  std::byte prefix[kMaxVarint]{};
  const std::size_t n = put_varint(prefix, payload_len);
  assert(n <= kLenGap);
  const std::size_t offset = kLenGap - n;
  std::memcpy(buf_.data() + offset, prefix, n);
  return Frame{Frame::make_holder(std::move(buf_)), offset};
}

void Reader::truncated() { throw WireError{"wire: truncated input"}; }

std::uint64_t Reader::varint_long() {
  // With a whole varint's worth of bytes left, one check covers them all.
  const bool room = remaining() >= kMaxVarint;
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b =
        room ? static_cast<std::uint8_t>(buf_[pos_++]) : u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw WireError{"wire: varint too long"};
}

std::uint64_t Reader::count(std::size_t min_bytes_each) {
  const std::uint64_t n = varint();
  if (min_bytes_each != 0 && n > remaining() / min_bytes_each)
    throw WireError{"wire: element count exceeds available bytes"};
  return n;
}

std::int64_t Reader::zigzag() {
  const std::uint64_t v = varint();
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

double Reader::f64() {
  need(8);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf_[pos_++]))
            << (8 * i);
  return std::bit_cast<double>(bits);
}

std::string Reader::string() { return std::string{string_view()}; }

std::string_view Reader::string_view() {
  const std::uint64_t len = varint();
  need(len);
  const std::string_view s{reinterpret_cast<const char*>(buf_.data() + pos_),
                           static_cast<std::size_t>(len)};
  pos_ += len;
  return s;
}

std::span<const std::byte> Reader::bytes(std::size_t n) {
  need(n);
  const std::span<const std::byte> s = buf_.subspan(pos_, n);
  pos_ += n;
  return s;
}

Value Reader::value() {
  Value v;
  value_into(v);
  return v;
}

void Reader::value_into(Value& out) {
  const auto kind = static_cast<Kind>(u8());
  switch (kind) {
    case Kind::Null: out = Value{}; return;
    case Kind::Bool: out = Value{u8() != 0}; return;
    case Kind::Int: out = Value{zigzag()}; return;
    case Kind::Double: out = Value{f64()}; return;
    case Kind::String: out.assign_string(string_view()); return;
  }
  throw WireError{"wire: unknown value kind"};
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::byte> frame(std::span<const std::byte> payload) {
  Writer w;
  w.varint(payload.size());
  w.raw(payload);
  w.raw(le64(fnv1a(payload)));
  return w.take();
}

std::uint8_t frame_tag(std::span<const std::byte> framed) noexcept {
  // Walk the leading length varint by hand (no checksum validation, no
  // throw) and peek the first payload byte — the convention every framed
  // protocol in this repo follows is "payload starts with a tag byte".
  std::size_t pos = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= framed.size()) return 0xff;
    const auto b = static_cast<std::uint8_t>(framed[pos++]);
    if ((b & 0x80) == 0) break;
    if (shift + 7 >= 64) return 0xff;  // varint too long
  }
  if (pos >= framed.size()) return 0xff;  // empty payload
  return static_cast<std::uint8_t>(framed[pos]);
}

namespace {

/// A frame split into its payload view and the checksum it carries.
struct Framed {
  std::span<const std::byte> payload;
  std::uint64_t sum = 0;
};

Framed split_frame(std::span<const std::byte> framed) {
  Reader r{framed};
  const std::uint64_t len = r.varint();
  if (len > framed.size() || r.remaining() < len + 8)
    throw WireError{"wire: truncated frame"};
  Framed f{r.bytes(len)};
  for (int i = 0; i < 8; ++i)
    f.sum |= static_cast<std::uint64_t>(r.u8()) << (8 * i);
  return f;
}

}  // namespace

std::span<const std::byte> unframe(std::span<const std::byte> framed) {
  const Framed f = split_frame(framed);
  if (f.sum != fnv1a(f.payload)) throw WireError{"wire: checksum mismatch"};
  return f.payload;
}

std::span<const std::byte> unframe_once(const Frame& framed) {
  const Framed f = split_frame(framed.bytes());
  const detail::FrameHolder* holder = framed.holder_;
  if (holder->verified.load(std::memory_order_relaxed)) return f.payload;
  if (f.sum != fnv1a(f.payload)) throw WireError{"wire: checksum mismatch"};
  holder->verified.store(true, std::memory_order_relaxed);
  return f.payload;
}

}  // namespace cake::wire
