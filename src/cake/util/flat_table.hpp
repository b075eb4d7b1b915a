// Open-addressed hash table for unsigned integer keys.
//
// One contiguous slot array, linear probing, at most three quarters full,
// so a hit costs one multiply and usually one cache line. The key's
// all-ones value marks an empty slot and may not be inserted. Erase shifts
// the rest of the probe run back instead of leaving tombstones. Values move
// when the table grows: hold no pointer into it across an insert.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace cake::util {

template <typename Key, typename Value>
class FlatTable {
  static_assert(std::is_unsigned_v<Key>);

public:
  static constexpr Key kEmpty = std::numeric_limits<Key>::max();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] Value* find(Key key) noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == kEmpty) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }
  [[nodiscard]] const Value* find(Key key) const noexcept {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// The value at `key`, inserted as `fresh` when absent.
  Value& try_emplace(Key key, Value fresh = Value{}) {
    if (Value* hit = find(key)) return *hit;
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty) i = next(i);
    slots_[i] = Slot{key, std::move(fresh)};
    ++size_;
    return slots_[i].value;
  }

  void erase(Key key) noexcept {
    if (slots_.empty()) return;
    std::size_t hole = home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmpty) return;
      hole = next(hole);
    }
    // Pull back every later entry of the run whose home does not lie
    // cyclically in (hole, j]: it was probed past the hole and must not
    // be cut off from its home by the empty slot.
    for (std::size_t j = next(hole); slots_[j].key != kEmpty; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void clear() noexcept {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

private:
  struct Slot {
    Key key = kEmpty;
    Value value{};
  };

  [[nodiscard]] std::size_t home(Key key) const noexcept {
    // Fibonacci hashing: the product's top bits index the power-of-two array.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max<std::size_t>(16, 2 * slots_.size())));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kEmpty) i = next(i);
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace cake::util
