// The unit a ThreadedTransport lane queues (DESIGN.md §11): a move-only
// task with 64 bytes of inline room and no heap fallback, so queueing one
// never allocates. The fabric's `{Network*, Delivery}` frame capture fills
// it exactly; a `runtime::Task` (a 32-byte std::function) rides the same way.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cake::runtime {

class LaneTask {
public:
  static constexpr std::size_t kInline = 64;

  LaneTask() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, LaneTask>>>
  explicit LaneTask(F&& fn) : ops_(&kOps<Fn>) {
    static_assert(sizeof(Fn) <= kInline && alignof(Fn) <= alignof(void*),
                  "LaneTask: the callable must fit 64 inline bytes");
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
  }

  LaneTask(LaneTask&& other) noexcept { *this = std::move(other); }
  LaneTask& operator=(LaneTask&& other) noexcept {
    if (this == &other) return *this;
    reset();
    if (other.ops_ != nullptr) other.ops_->relocate(other.storage_, storage_);
    ops_ = std::exchange(other.ops_, nullptr);
    return *this;
  }
  ~LaneTask() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Runs the callable; the task must not be empty.
  void operator()() { ops_->call(storage_); }

  /// Destroys the callable and with it everything it captured.
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

private:
  struct Ops {
    void (*call)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};

  const Ops* ops_ = nullptr;
  alignas(void*) std::byte storage_[kInline];
};

}  // namespace cake::runtime
