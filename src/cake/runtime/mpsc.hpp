// Bounded lock-free multi-producer single-consumer ring.
//
// The classic Vyukov bounded queue, used in its MPSC restriction: any
// thread may push, exactly one thread pops. Each cell carries a sequence
// word that encodes whose turn the slot is; producers claim slots with one
// CAS on the enqueue cursor, the consumer advances its cursor with plain
// stores. No slot is ever written while the other side can read it, so the
// only contended word is the enqueue cursor. It is each ThreadedTransport
// lane's one queue (DESIGN.md §11), and its push is the entire cross-thread
// cost of handing a fabric frame over (a refcounted frame: a pointer move).
//
// Capacity is rounded up to a power of two. `try_push` fails, never waits,
// when the ring is full (the lane worker then defers to its outbox);
// `try_pop` fails when it is empty. Both are wait-free for the consumer and
// lock-free for producers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace cake::runtime {

template <typename T>
class BoundedMpscQueue {
public:
  explicit BoundedMpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Any thread. False when the ring is full.
  bool try_push(T&& value) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // the slot is still occupied by a lap-old element
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    Cell& cell = cells_[pos & mask_];
    cell.value = std::move(value);
    cell.seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Consumer thread only. False when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                              static_cast<std::intptr_t>(pos + 1);
    if (dif < 0) return false;
    out = std::move(cell.value);
    cell.value = T{};  // release captured state eagerly
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Consumer thread only. True when no element is ready to pop. A
  /// concurrent producer mid-publication may read as empty — callers use
  /// this for sleep decisions, backed by a bounded wait.
  [[nodiscard]] bool empty() const noexcept {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    const std::size_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<std::intptr_t>(seq) -
               static_cast<std::intptr_t>(pos + 1) < 0;
  }

private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace cake::runtime
