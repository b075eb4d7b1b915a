// ThreadedTransport-specific behaviour the sim oracle has no analogue
// for: the lock-free MPSC queue itself, cross-thread submission, batch
// boundaries, shutdown/rejection semantics, and the CAKE_THREADS worker
// clamp.
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend_fixture.hpp"
#include "cake/runtime/mpsc.hpp"
#include "cake/runtime/threaded.hpp"

namespace cake::transport_tests {
namespace {

using runtime::BoundedMpscQueue;
using runtime::ThreadedOptions;
using runtime::ThreadedTransport;

TEST(MpscQueue, FifoOrderSingleThread) {
  BoundedMpscQueue<int> queue{8};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.try_push(int{i}));
  int value = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_pop(value));
    EXPECT_EQ(value, i);
  }
  EXPECT_FALSE(queue.try_pop(value));
  EXPECT_TRUE(queue.empty());
}

TEST(MpscQueue, RejectsWhenFullAndRoundsCapacityToPowerOfTwo) {
  BoundedMpscQueue<int> queue{6};  // rounds up to 8
  int pushed = 0;
  while (queue.try_push(int{pushed})) ++pushed;
  EXPECT_EQ(pushed, 8);
  int value = -1;
  ASSERT_TRUE(queue.try_pop(value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(queue.try_push(int{99}));  // slot freed by the pop
}

TEST(MpscQueue, MultiProducerSingleConsumerLosesAndDuplicatesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20'000;
  BoundedMpscQueue<int> queue{1024};
  std::atomic<bool> done{false};
  std::vector<int> received;
  received.reserve(kProducers * kPerProducer);

  std::thread consumer{[&] {
    int value = -1;
    while (!done.load(std::memory_order_acquire) || !queue.empty())
      if (queue.try_pop(value)) received.push_back(value);
  }};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int tagged = p * kPerProducer + i;
        while (!queue.try_push(int{tagged})) std::this_thread::yield();
      }
    });
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  ASSERT_EQ(received.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::set<int> unique{received.begin(), received.end()};
  EXPECT_EQ(unique.size(), received.size()) << "duplicate delivery";
  // Per-producer FIFO: each producer's tags must appear in its own order.
  std::vector<int> next(kProducers, 0);
  for (const int tag : received) {
    const int p = tag / kPerProducer;
    EXPECT_EQ(tag % kPerProducer, next[p]) << "producer order violated";
    ++next[p];
  }
}

TEST(ThreadedTransportTest, CrossThreadPostsAllExecute) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  ThreadedTransport transport{};
  std::atomic<int> count{0};
  std::vector<std::thread> posters;
  for (int p = 0; p < kThreads; ++p)
    posters.emplace_back([&transport, &count, p] {
      for (int i = 0; i < kPerThread; ++i)
        transport.post(static_cast<std::size_t>(p + i),
                       [&count] { count.fetch_add(1); });
    });
  for (auto& t : posters) t.join();
  transport.drain();
  EXPECT_EQ(count.load(), kThreads * kPerThread);
  EXPECT_GE(transport.stats().tasks,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// The wake protocol is a Dekker handshake (producer: push, then read
// `asleep`; worker: set `asleep`, then recheck the queue). Without full
// fences either side's store can sit in its store buffer past the other's
// load, and a post slips by a worker on its way to sleep: the lane then
// stalls until the sleep's 50 ms timeout. Spaced single posts from a
// foreign thread land all over the worker's sleep transition; every one
// must wake it.
TEST(ThreadedTransportTest, SpacedForeignPostsNeverMissAWakeup) {
  constexpr int kPosts = 20'000;
  ThreadedTransport transport{ThreadedOptions{.workers = 1}};
  std::atomic<int> done{0};
  for (int i = 0; i < kPosts; ++i) {
    // Vary the gap so posts hit every phase of the worker going idle.
    const auto gap = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds{(i * 37) % 4'000};
    while (std::chrono::steady_clock::now() < gap) {
    }
    transport.post([&done] { done.fetch_add(1, std::memory_order_release); });
    while (done.load(std::memory_order_acquire) <= i) std::this_thread::yield();
  }
  transport.drain();
  EXPECT_EQ(done.load(), kPosts);
  EXPECT_EQ(transport.stats().missed_wakeups, 0u);
}

TEST(ThreadedTransportTest, ShutdownDrainsAlreadyQueuedTasks) {
  ThreadedTransport transport{ThreadedOptions{.workers = 1}};
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future()};
  std::atomic<bool> blocked{false};
  std::atomic<int> count{0};
  transport.post([&blocked, gate] {
    blocked.store(true);
    gate.wait();
  });
  while (!blocked.load()) std::this_thread::yield();
  for (int i = 0; i < 50; ++i)
    transport.post([&count] { count.fetch_add(1); });
  release.set_value();
  transport.shutdown();  // must run the 50 queued tasks, then join
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadedTransportTest, SubmissionAfterShutdownIsRejectedNotLost) {
  ThreadedTransport transport{};
  transport.shutdown();
  std::atomic<int> count{0};
  transport.post([&count] { count.fetch_add(1); });
  transport.schedule_after(1'000, [&count] { count.fetch_add(1); });
  transport.drain();  // must return immediately: nothing was accepted
  EXPECT_EQ(count.load(), 0);
  EXPECT_GE(transport.stats().posts_rejected, 2u);
}

TEST(ThreadedTransportTest, BatchBoundaryIsExactlyN) {
  constexpr std::size_t kBatch = 8;
  ThreadedTransport transport{
      ThreadedOptions{.workers = 1, .queue_capacity = 64, .batch = kBatch}};
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future()};
  std::atomic<bool> blocked{false};
  std::atomic<int> count{0};
  // Park the only worker inside a task so the queue accumulates exactly
  // kBatch items, then release: the next drain must take all kBatch in
  // one wakeup — and never more than kBatch even under further load.
  transport.post([&blocked, gate] {
    blocked.store(true);
    gate.wait();
  });
  while (!blocked.load()) std::this_thread::yield();
  for (std::size_t i = 0; i < kBatch; ++i)
    transport.post([&count] { count.fetch_add(1); });
  release.set_value();
  transport.drain();
  EXPECT_EQ(count.load(), static_cast<int>(kBatch));
  const auto stats = transport.stats();
  EXPECT_EQ(stats.max_batch, kBatch);
  EXPECT_GE(stats.batches, 2u);  // the blocker's singleton + the full batch
}

// Outside threads that find a lane's queue full wait for room (they are
// not its consumer, so they cannot make any): with the only worker parked
// on a gate, exactly the ring's 64 slots fill and every poster then spins.
// Released, the lane runs every task exactly once.
TEST(ThreadedTransportTest, ForeignPostersBlockedOnAFullLaneLoseNothing) {
  constexpr int kPosters = 4;
  constexpr int kPerPoster = 1'000;
  constexpr int kCapacity = 64;
  ThreadedTransport transport{
      ThreadedOptions{.workers = 1, .queue_capacity = kCapacity}};
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future()};
  std::atomic<bool> blocked{false};
  transport.post([&blocked, gate] {
    blocked.store(true);
    gate.wait();
  });
  while (!blocked.load()) std::this_thread::yield();

  std::vector<std::atomic<int>> runs(kPosters * kPerPoster);
  std::atomic<int> posted{0};
  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p)
    posters.emplace_back([&transport, &runs, &posted, p] {
      for (int i = 0; i < kPerPoster; ++i) {
        std::atomic<int>* run = &runs[p * kPerPoster + i];
        transport.post([run] { run->fetch_add(1); });
        posted.fetch_add(1);
      }
    });
  while (posted.load() < kCapacity) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(posted.load(), kCapacity) << "a post got past a full lane";

  release.set_value();
  for (auto& t : posters) t.join();
  transport.drain();
  for (std::size_t i = 0; i < runs.size(); ++i)
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
}

// A worker never waits for room and never runs a task inside another: a
// post that finds its lane full goes to the worker's outbox, and so does
// every later post while the outbox holds one (ThreadedTransport::enqueue).
// The worker flushes the outbox before each pop. 500 posts from inside a
// task through a 64-slot ring fill the ring with the first 64 and defer
// the other 436; the tasks still run exactly once each, in post order.
TEST(ThreadedTransportTest, WorkerPostingPastItsOwnFullLaneKeepsOrder) {
  constexpr int kTasks = 500;
  constexpr int kCapacity = 64;
  ThreadedTransport transport{
      ThreadedOptions{.workers = 1, .queue_capacity = kCapacity}};
  std::vector<int> order;  // touched only on the lane, read after drain
  transport.post([&transport, &order] {
    for (int i = 0; i < kTasks; ++i)
      transport.post([&order, i] { order.push_back(i); });
    order.push_back(-1);  // the poster finishes before any task it posted
  });
  transport.drain();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks) + 1);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(order[i + 1], i);
  EXPECT_EQ(transport.stats().deferred,
            static_cast<std::uint64_t>(kTasks - kCapacity));
}

TEST(ThreadedTransportTest, BatchNeverExceedsConfiguredLimit) {
  constexpr std::size_t kBatch = 4;
  ThreadedTransport transport{
      ThreadedOptions{.workers = 1, .queue_capacity = 256, .batch = kBatch}};
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i)
    transport.post([&count] { count.fetch_add(1); });
  transport.drain();
  EXPECT_EQ(count.load(), 200);
  EXPECT_LE(transport.stats().max_batch, kBatch);
}

TEST(ThreadedTransportTest, WorkerCountRespectsCakeThreadsOverride) {
  {
    EnvGuard guard{"CAKE_THREADS", "3"};
    EXPECT_EQ(runtime::thread_limit(), 3u);
    EXPECT_EQ(runtime::resolve_workers(0), 3u);
    EXPECT_EQ(runtime::resolve_workers(8), 3u);
    EXPECT_EQ(runtime::resolve_workers(2), 2u);
    ThreadedTransport transport{};
    EXPECT_EQ(transport.workers(), 3u);
  }
  {
    EnvGuard guard{"CAKE_THREADS", "0"};
    EXPECT_EQ(runtime::thread_limit(), 1u);  // clamped up to 1
  }
  {
    EnvGuard guard{"CAKE_THREADS", "100000"};
    EXPECT_EQ(runtime::thread_limit(), runtime::kMaxWorkers);
  }
}

TEST(ThreadedTransportTest, WorkerCountDefaultsToHardwareClamp) {
  EnvGuard guard{"CAKE_THREADS", "1"};
  // With the env pinned the resolution is deterministic on any machine.
  ThreadedTransport transport{ThreadedOptions{.workers = 16}};
  EXPECT_EQ(transport.workers(), 1u);
}

TEST(ThreadedTransportTest, DistinctLanesMakeProgressIndependently) {
  EnvGuard guard{"CAKE_THREADS", "2"};
  ThreadedTransport transport{};
  ASSERT_EQ(transport.workers(), 2u);
  // Park lane 0; lane 1 must still run its task to completion.
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future()};
  transport.post(0, [gate] { gate.wait(); });
  std::atomic<bool> lane1_ran{false};
  transport.post(1, [&lane1_ran] { lane1_ran.store(true); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!lane1_ran.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(lane1_ran.load()) << "a parked lane stalled its sibling";
  release.set_value();
  transport.drain();
}

TEST(ThreadedTransportTest, TimersFireOnTheLaneThatScheduledThem) {
  // The single-writer contract for overlay nodes hangs on this: a broker's
  // lease/RTO/heartbeat callbacks must come back to the broker's own lane.
  EnvGuard guard{"CAKE_THREADS", "4"};
  ThreadedTransport transport{};
  ASSERT_EQ(transport.workers(), 4u);
  std::atomic<int> mismatches{0};
  std::atomic<int> fired{0};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    transport.post(lane, [&transport, &mismatches, &fired, lane] {
      ASSERT_EQ(runtime::current_lane(), lane);
      transport.schedule_after(1'000, [&mismatches, &fired, lane] {
        if (runtime::current_lane() != lane) mismatches.fetch_add(1);
        fired.fetch_add(1);
      });
    });
  }
  transport.drain();
  EXPECT_EQ(fired.load(), 4);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadedTransportTest, TimersFiredStatCounts) {
  ThreadedTransport transport{};
  std::atomic<int> fired{0};
  for (int i = 0; i < 5; ++i)
    transport.schedule_after(1'000 * (i + 1), [&fired] { fired.fetch_add(1); });
  transport.drain();
  EXPECT_EQ(fired.load(), 5);
  EXPECT_GE(transport.stats().timers_fired, 5u);
}

}  // namespace
}  // namespace cake::transport_tests
