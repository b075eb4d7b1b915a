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
//
// A holder also carries one memo: whatever a receiver derived from the
// bytes (`memoize`; the routing layer keeps the decoded event there), so
// every later hop and receiver of the same Frame reads it instead of
// decoding again (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace cake::wire {

/// Base of a per-frame memo (see `memoize`). The wire layer cannot know the
/// types derived from frames, so the holder keeps the memo type-erased.
class FrameMemo {
public:
  virtual ~FrameMemo() = default;
};

namespace detail {

/// States of a holder's memo slot.
enum MemoState : std::uint8_t { kMemoEmpty, kMemoFilling, kMemoReady };

// Intrusive refcount node backing a Frame. Nodes cycle through a
// thread-local freelist and their vector's capacity goes back to the buffer
// pool on final release, so neither costs an allocation in steady state.
// Internal to the wire module; only buffer.cpp, wire.cpp and `memoize`
// touch it.
struct FrameHolder {
  std::vector<std::byte> buf;
  mutable std::atomic<std::uint32_t> refs{1};
  /// Set by `unframe_once` after these bytes passed their checksum, cleared
  /// when the node is recycled. The bytes are immutable while the node is
  /// live, so the verdict holds for every later reader of the same frame.
  mutable std::atomic<bool> verified{false};
  /// The memo slot: `memo_state` goes empty -> filling -> ready once per
  /// issue of the node and back to empty when `make_holder` re-issues it.
  /// The memo object itself stays with the pooled node, so a refill reuses
  /// its capacity.
  mutable std::atomic<std::uint8_t> memo_state{kMemoEmpty};
  mutable std::unique_ptr<FrameMemo> memo;
};

}  // namespace detail

class Frame;

/// The memo of type `Memo` derived from `frame`'s bytes, built by
/// `fill(Memo&)` the first time any holder of these bytes asks. `fill`
/// overwrites whatever a previous issue of the pooled node left in the memo
/// (reusing its capacity) and throws to report bad bytes: a failed fill is
/// never memoized, so the next caller tries again. Exactly one thread fills;
/// a concurrent caller waits for it (a fill is a short decode) and then
/// shares the result. The memo lives as long as the frame's bytes, and every
/// caller must ask for the same `Memo` type. `frame` must not be empty.
template <class Memo, class Fill>
[[nodiscard]] const Memo& memoize(const Frame& frame, Fill&& fill);

/// Validates a frame the way `unframe` does, at most once per frame: the
/// first successful check is memoized on the refcounted buffer, so every
/// later hop or receiver of the same Frame (pass-through fan-out) skips the
/// checksum. A failed check is never memoized, and fresh bytes — a copy,
/// a corrupted copy, a recycled buffer — start unverified. Defined in
/// wire.cpp.
[[nodiscard]] std::span<const std::byte> unframe_once(const Frame& framed);

/// An empty vector with warm capacity from the thread-local pool, or a
/// fresh one with room for a typical event frame when the pool is empty.
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
  /// Frames sharing these bytes (0 for a frame without a buffer). Exact
  /// only while no other thread copies or drops one of them.
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return holder_ ? holder_->refs.load(std::memory_order_relaxed) : 0;
  }
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
  template <class Memo, class Fill>
  friend const Memo& memoize(const Frame& frame, Fill&& fill);

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

template <class Memo, class Fill>
const Memo& memoize(const Frame& frame, Fill&& fill) {
  static_assert(std::is_base_of_v<FrameMemo, Memo>);
  using detail::kMemoEmpty;
  using detail::kMemoFilling;
  using detail::kMemoReady;
  const detail::FrameHolder* h = frame.holder_;
  assert(h != nullptr);
  std::uint8_t state = h->memo_state.load(std::memory_order_acquire);
  while (state != kMemoReady) {
    if (state == kMemoEmpty &&
        h->memo_state.compare_exchange_weak(state, kMemoFilling,
                                            std::memory_order_acquire)) {
      // Ours to fill: no other thread touches the memo until it is ready.
      auto* memo = dynamic_cast<Memo*>(h->memo.get());
      if (memo == nullptr) {
        h->memo = std::make_unique<Memo>();
        memo = static_cast<Memo*>(h->memo.get());
      }
      try {
        fill(*memo);
      } catch (...) {
        h->memo_state.store(kMemoEmpty, std::memory_order_release);
        throw;
      }
      h->memo_state.store(kMemoReady, std::memory_order_release);
      return *memo;
    }
    if (state == kMemoFilling) {
      std::this_thread::yield();
      state = h->memo_state.load(std::memory_order_acquire);
    }
  }
  return static_cast<const Memo&>(*h->memo);
}

}  // namespace cake::wire
