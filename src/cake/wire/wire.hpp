// Binary wire format substrate.
//
// Events crossing broker links are serialized; the paper's end-to-end
// type-safety claim is that *users* never marshal — the runtime does, via
// reflection. This module provides the byte-level half: a bounds-checked
// little-endian Writer/Reader pair with varint integers, length-prefixed
// strings, and checksummed frames for link transfer. Value encoding for the
// `Value` variant lives here too, since every higher layer (event images,
// filters, protocol messages) is built out of Values and primitives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cake/value/value.hpp"
#include "cake/wire/buffer.hpp"

namespace cake::wire {

/// Raised by `Reader` on truncated, corrupt or malformed input.
class WireError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte sink.
class Writer {
public:
  Writer() = default;

  /// A writer whose backing buffer comes from the thread-local pool; pair
  /// with `begin_frame`/`end_frame` to encode a whole frame with zero
  /// steady-state allocations.
  [[nodiscard]] static Writer pooled();

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  /// Unsigned LEB128 varint (1-10 bytes), appended in one insert.
  void varint(std::uint64_t v);
  /// Signed integer, zigzag-encoded then varint.
  void zigzag(std::int64_t v);
  /// IEEE-754 double, little-endian fixed 8 bytes.
  void f64(double v);
  /// Length-prefixed UTF-8 bytes.
  void string(std::string_view s);
  /// Tagged `Value` (kind byte + payload).
  void value(const value::Value& v);
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::byte> bytes);

  /// In-place framing: reserves a fixed-width gap for the length prefix.
  /// Must be the first write. Everything written afterwards is the frame
  /// payload; `end_frame` checksums it and back-fills a right-aligned
  /// minimal varint length into the gap — no payload copy, byte-identical
  /// on the wire to the copying `frame()` helper.
  void begin_frame();
  /// Finishes an in-place frame, consuming the writer's buffer.
  [[nodiscard]] Frame end_frame();

private:
  std::vector<std::byte> buf_;
  bool framing_ = false;
};

/// Bounds-checked byte source over a borrowed buffer.
class Reader {
public:
  explicit Reader(std::span<const std::byte> bytes) noexcept : buf_(bytes) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  [[nodiscard]] std::uint8_t u8() {
    if (pos_ == buf_.size()) truncated();
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  /// A one-byte varint is read inline; longer ones take `varint_long`.
  [[nodiscard]] std::uint64_t varint() {
    if (pos_ < buf_.size()) {
      const auto b = static_cast<std::uint8_t>(buf_[pos_]);
      if (b < 0x80) {
        ++pos_;
        return b;
      }
    }
    return varint_long();
  }
  /// Reads a varint element count and validates it against the bytes left
  /// (each element needs at least `min_bytes_each`); throws WireError on
  /// impossible counts. Prevents attacker-controlled pre-allocations.
  [[nodiscard]] std::uint64_t count(std::size_t min_bytes_each = 1);
  [[nodiscard]] std::int64_t zigzag();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string string();
  /// Borrowed length-prefixed string: a view into the reader's buffer, no
  /// copy. Valid only while the underlying buffer lives.
  [[nodiscard]] std::string_view string_view();
  /// Borrowed raw bytes (`n` of them), advancing the cursor.
  [[nodiscard]] std::span<const std::byte> bytes(std::size_t n);
  [[nodiscard]] value::Value value();
  /// Like `value()` but decodes into `out`, reusing the storage of a string
  /// it already holds.
  void value_into(value::Value& out);

private:
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;

  void need(std::size_t n) const {
    if (remaining() < n) truncated();
  }
  [[noreturn]] static void truncated();
  [[nodiscard]] std::uint64_t varint_long();
};

/// FNV-1a 64-bit checksum of a byte range.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// Wraps a payload into a checksummed frame: varint length + payload + sum.
/// Copies the payload once; hot paths should use `Writer::begin_frame`/
/// `end_frame`, which frame in place.
[[nodiscard]] std::vector<std::byte> frame(std::span<const std::byte> payload);

/// Peeks the first payload byte (by convention, a packet tag) of a
/// checksummed frame without validating the checksum. Returns 0xff on
/// truncated or malformed input; never throws.
[[nodiscard]] std::uint8_t frame_tag(std::span<const std::byte> framed) noexcept;

/// Validates a frame produced by `frame`/`end_frame` and returns a
/// bounds-checked *view* of its payload (no copy — the view borrows from
/// `framed`). Throws WireError on truncation or checksum mismatch.
/// Receivers holding a refcounted `Frame` call `unframe_once` (buffer.hpp)
/// instead, which checks each frame's checksum only once.
[[nodiscard]] std::span<const std::byte> unframe(
    std::span<const std::byte> framed);

}  // namespace cake::wire
