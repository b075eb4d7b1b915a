// Pooled, refcounted wire buffers.
//
// Every packet the simulator carries used to be a `std::vector<std::byte>`
// copied at each fan-out point. `Frame` is the replacement: an immutable,
// reference-counted byte buffer — copying a Frame bumps a refcount, so a
// broker can fan one inbound event frame out to every matching child
// without touching the bytes (DESIGN.md §9, pass-through forwarding). The
// backing vectors cycle through a thread-local pool so steady-state
// encoding does not allocate either. The refcount is intrusive and the
// holder nodes themselves are pooled, so producing a fresh Frame in steady
// state performs zero heap allocations — required by the link layer, which
// encodes standalone ACK frames on the per-event hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace cake::wire {

namespace detail {
// Intrusive refcount node backing a Frame. Nodes cycle through a
// thread-local freelist and their vector's capacity goes back to the buffer
// pool on final release, so neither costs an allocation in steady state.
// Internal to the wire module; only buffer.cpp and wire.cpp touch it.
struct FrameHolder {
  std::vector<std::byte> buf;
  mutable std::atomic<std::uint32_t> refs{1};
  /// Set by `unframe_once` after these bytes passed their checksum, cleared
  /// when the node is recycled. The bytes are immutable while the node is
  /// live, so the verdict holds for every later reader of the same frame.
  mutable std::atomic<bool> verified{false};
};
}  // namespace detail

class Frame;

/// Validates a frame the way `unframe` does, at most once per frame: the
/// first successful check is memoized on the refcounted buffer, so every
/// later hop or receiver of the same Frame (pass-through fan-out) skips the
/// checksum. A failed check is never memoized, and fresh bytes — a copy,
/// a corrupted copy, a recycled buffer — start unverified. Defined in
/// wire.cpp.
[[nodiscard]] std::span<const std::byte> unframe_once(const Frame& framed);

/// An empty vector with warm capacity from the thread-local pool (or a
/// fresh one when the pool is empty).
[[nodiscard]] std::vector<std::byte> acquire_buffer();

/// Returns a buffer's capacity to the thread-local pool (bounded; excess
/// buffers are simply freed).
void release_buffer(std::vector<std::byte>&& buf) noexcept;

/// Immutable refcounted byte buffer holding one encoded wire frame.
///
/// `offset` exists because `Writer::end_frame` right-aligns the varint
/// length prefix inside a fixed-width gap instead of copying the payload:
/// the visible bytes (`bytes()`) start past the slack and are byte-identical
/// to what the copying `frame()` helper produces.
class Frame {
public:
  Frame() = default;
  /// Wraps an existing encoded frame. Implicit so legacy
  /// `encode() -> vector` call sites keep working.
  Frame(std::vector<std::byte> bytes);
  /// Literal payloads (tests, hand-rolled packets).
  Frame(std::initializer_list<std::byte> bytes)
      : Frame(std::vector<std::byte>{bytes}) {}

  Frame(const Frame& other) noexcept
      : holder_(other.holder_), offset_(other.offset_) {
    if (holder_) retain(holder_);
  }
  Frame(Frame&& other) noexcept
      : holder_(std::exchange(other.holder_, nullptr)),
        offset_(std::exchange(other.offset_, 0)) {}
  Frame& operator=(const Frame& other) noexcept {
    Frame tmp{other};
    swap(tmp);
    return *this;
  }
  Frame& operator=(Frame&& other) noexcept {
    Frame tmp{std::move(other)};
    swap(tmp);
    return *this;
  }
  ~Frame() {
    if (holder_) release(holder_);
  }

  void swap(Frame& other) noexcept {
    std::swap(holder_, other.holder_);
    std::swap(offset_, other.offset_);
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    if (!holder_) return {};
    return std::span<const std::byte>{storage().data() + offset_,
                                      storage().size() - offset_};
  }
  operator std::span<const std::byte>() const noexcept { return bytes(); }

  [[nodiscard]] std::size_t size() const noexcept {
    return holder_ ? storage().size() - offset_ : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::byte* data() const noexcept { return bytes().data(); }
  const std::byte& operator[](std::size_t i) const noexcept {
    return bytes()[i];
  }
  [[nodiscard]] auto begin() const noexcept { return bytes().begin(); }
  [[nodiscard]] auto end() const noexcept { return bytes().end(); }

  /// Content equality (not identity): two frames are equal when their
  /// visible bytes are.
  friend bool operator==(const Frame& a, const Frame& b) noexcept {
    const auto sa = a.bytes();
    const auto sb = b.bytes();
    return sa.size() == sb.size() &&
           std::equal(sa.begin(), sa.end(), sb.begin());
  }

private:
  friend class Writer;
  friend std::span<const std::byte> unframe_once(const Frame& framed);

  using Holder = detail::FrameHolder;

  /// A holder from the thread-local freelist (or a fresh one), owning `buf`
  /// with an initial refcount of 1.
  [[nodiscard]] static Holder* make_holder(std::vector<std::byte> buf);
  static void retain(Holder* h) noexcept {
    h->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(Holder* h) noexcept;

  Frame(Holder* holder, std::size_t offset) noexcept
      : holder_(holder), offset_(offset) {}

  [[nodiscard]] const std::vector<std::byte>& storage() const noexcept {
    return holder_->buf;
  }

  Holder* holder_ = nullptr;
  std::size_t offset_ = 0;
};

}  // namespace cake::wire
