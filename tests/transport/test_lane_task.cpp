// runtime::LaneTask, the unit every ThreadedTransport lane queues: a
// move-only callable held in 64 bytes of inline room. Its contract — a
// full-size capture fits, a moved-from task is empty, the callable is
// destroyed exactly once, and a worker drops a task's captures as soon as
// the task has run — is what lets a queue slot carry a fabric frame with
// no allocation and no lingering reference. (The zero-allocation half is
// pinned by tests/alloc, whose operator new interposer counts it.)
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "cake/runtime/lane_task.hpp"
#include "cake/runtime/threaded.hpp"

namespace cake::transport_tests {
namespace {

using runtime::LaneTask;
using runtime::ThreadedOptions;
using runtime::ThreadedTransport;

/// A callable that counts the destruction of its one live instance; a
/// moved-from copy counts nothing.
struct Tracked {
  explicit Tracked(int* destroyed) : destroyed(destroyed) {}
  Tracked(Tracked&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() const {}

  int* destroyed;
};

TEST(LaneTask, SixtyFourByteCaptureRunsFromInlineRoom) {
  const std::array<std::uint64_t, 7> words{1, 2, 3, 4, 5, 6, 7};
  std::uint64_t sum = 0;
  const auto fn = [words, out = &sum] {
    for (const std::uint64_t w : words) *out += w;
  };
  static_assert(sizeof(fn) == LaneTask::kInline);
  LaneTask task{fn};
  ASSERT_TRUE(task);
  task();
  EXPECT_EQ(sum, 28u);
}

TEST(LaneTask, MovedFromTaskIsEmpty) {
  int runs = 0;
  LaneTask first{[&runs] { ++runs; }};
  LaneTask second{std::move(first)};
  EXPECT_FALSE(first);  // a moved-from task is empty: the contract
  ASSERT_TRUE(second);
  LaneTask third;
  EXPECT_FALSE(third);
  third = std::move(second);
  EXPECT_FALSE(second);
  ASSERT_TRUE(third);
  third();
  EXPECT_EQ(runs, 1);
}

TEST(LaneTask, CallableIsDestroyedExactlyOnce) {
  int destroyed = 0;
  {
    LaneTask task{Tracked{&destroyed}};
    LaneTask moved{std::move(task)};
    LaneTask assigned;
    assigned = std::move(moved);
    assigned();
    EXPECT_EQ(destroyed, 0);  // running does not consume the callable
  }
  EXPECT_EQ(destroyed, 1);

  int reset = 0;
  LaneTask task{Tracked{&reset}};
  task.reset();
  task.reset();
  EXPECT_EQ(reset, 1);
  EXPECT_FALSE(task);

  int replaced = 0;
  LaneTask old{Tracked{&replaced}};
  old = LaneTask{[] {}};
  EXPECT_EQ(replaced, 1);  // assignment destroys the callable it replaces
}

// The worker resets each task as soon as it returns, so what a task
// captured is released before the lane runs its next task — not at the
// next pop into the same slot, and not when the worker next sleeps.
TEST(LaneTask, WorkerDropsCapturesRightAfterRunningTheTask) {
  ThreadedTransport transport{ThreadedOptions{.workers = 1}};
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  std::atomic<bool> expired_before_next{false};
  transport.post(0, LaneTask{[token = std::move(token)] { (void)*token; }});
  transport.post(0, [&watch, &expired_before_next] {
    expired_before_next = watch.expired();
  });
  transport.drain();
  EXPECT_TRUE(expired_before_next.load());
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace cake::transport_tests
