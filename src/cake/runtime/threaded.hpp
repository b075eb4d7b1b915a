// Threaded Transport backend: per-core executor lanes, one bounded
// lock-free MPSC queue of `LaneTask`s per lane, batch-draining workers, and
// a timer service (DESIGN.md §11).
//
// Posts, due timers and the delivery fabric's frames (sim::Network::
// bind_lanes, DESIGN.md §14) all pass through a lane's one queue, and a
// worker runs up to `batch` of them per wakeup. No worker waits for room
// or runs a task inside another: a post that finds its queue full, or its
// worker's outbox non-empty, joins that outbox, which the worker flushes
// in order before every pop. Outside threads yield until there is room.
// A timer thread posts due tasks onto the lane that *scheduled* them, so
// a broker's timers stay serialized with its other work, as on sim.
//
// Worker count resolution (deterministic, never oversubscribed):
// the limit is `CAKE_THREADS` when set (clamped to [1, 64]), else
// `std::thread::hardware_concurrency()`; `ThreadedOptions::workers == 0`
// means "the limit", anything else is clamped *to* the limit. A 1-core dev
// container therefore runs every threaded arm single-lane but correct,
// and CI runners pick up real parallelism without a flag in sight.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cake/runtime/lane_task.hpp"
#include "cake/runtime/mpsc.hpp"
#include "cake/runtime/transport.hpp"

namespace cake::runtime {

/// Hard ceiling on worker threads however CAKE_THREADS is set.
inline constexpr std::size_t kMaxWorkers = 64;

/// The clamp limit: CAKE_THREADS if set (in [1, kMaxWorkers]), else
/// hardware_concurrency(), else 1.
[[nodiscard]] std::size_t thread_limit() noexcept;

/// 0 → thread_limit(); otherwise min(requested, thread_limit()).
[[nodiscard]] std::size_t resolve_workers(std::size_t requested) noexcept;

struct ThreadedOptions {
  std::size_t workers = 0;  ///< executor lanes; 0 = auto, always clamped
  std::size_t queue_capacity = 4096;  ///< per-lane task ring (power of two)
  std::size_t batch = 32;   ///< max tasks drained per worker wakeup
};

/// Aggregated counters, snapshot via stats(). Relaxed atomics underneath:
/// monotonic per counter, not cross-counter consistent.
struct ThreadedStats {
  std::uint64_t tasks = 0;       ///< tasks executed across all lanes
  std::uint64_t batches = 0;     ///< wakeups that executed >= 1 task
  std::uint64_t max_batch = 0;   ///< largest single drain
  std::uint64_t timers_fired = 0;
  std::uint64_t posts_rejected = 0;  ///< submissions after shutdown
  /// Worker sleeps that ran into their timeout with work already queued: a
  /// post whose wakeup was lost. 0 unless the wake protocol is broken.
  std::uint64_t missed_wakeups = 0;
  std::uint64_t deferred = 0;  ///< posts a worker parked in its outbox
};

class ThreadedTransport final : public Transport {
public:
  explicit ThreadedTransport(ThreadedOptions options = {});
  ~ThreadedTransport() override;

  [[nodiscard]] Time now() const noexcept override;
  [[nodiscard]] std::size_t workers() const noexcept override {
    return lanes_.size();
  }

  void post(Task fn) override { post(0, std::move(fn)); }
  void post(std::size_t lane, Task fn) override {
    post(lane, LaneTask{std::move(fn)});
  }
  /// Foreground post of a ready queue slot (the fabric's frame handoff).
  void post(std::size_t lane, LaneTask task);

  void schedule_after(Time delay, Task fn) override;
  void schedule_background_after(Time delay, Task fn) override;
  void schedule_background_at(Time at, Task fn) override;
  TimerId schedule_cancellable_after(Time delay, Task fn) override;
  bool cancel(TimerId id) override;

  void drain() override;

  /// Stops accepting work, runs every task already queued (shutdown
  /// *drains*, it never discards a queued task), discards timers that have
  /// not come due, and joins all threads. Idempotent; the destructor calls
  /// it. Do not call concurrently with post/schedule from other threads.
  void shutdown();

  [[nodiscard]] ThreadedStats stats() const noexcept;

private:
  /// One queued unit: the task plus whether drain() waits for it.
  struct Item {
    LaneTask fn;
    bool foreground = false;
  };

  struct alignas(64) Lane {
    explicit Lane(std::size_t capacity) : queue(capacity) {}
    BoundedMpscQueue<Item> queue;
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<bool> asleep{false};
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> max_batch{0};
    std::atomic<std::uint64_t> missed_wakeups{0};
    std::atomic<std::uint64_t> deferred{0};
    // Deferred posts from `sent` on, in post order; only this lane's worker
    // touches them. A warm vector defers without allocating.
    std::vector<std::pair<Lane*, Item>> outbox;
    std::size_t sent = 0;
    std::thread thread;
  };

  struct TimerEntry {
    Time at = 0;
    std::uint64_t seq = 0;  // FIFO tie-break at equal deadlines
    TimerId id = kNoTimer;
    std::size_t lane = 0;
    bool foreground = false;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void worker_loop(Lane& lane, std::size_t index);
  void timer_loop();
  /// A worker of this transport defers to its outbox rather than wait;
  /// other threads yield while `lane` is full.
  void enqueue(Lane& lane, Item item);
  /// Pushes the outbox in order, stopping at the first full target.
  void flush_outbox(Lane& self);
  void wake(Lane& lane);
  void finish_foreground(std::uint64_t n) noexcept;
  TimerId schedule_at_internal(Time at, Task fn, bool foreground);

  ThreadedOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> stop_{false};
  bool joined_ = false;
  std::atomic<std::uint64_t> outboxed_{0};  // shutdown waits for 0

  // Foreground work outstanding: posts plus foreground timers that have
  // neither executed nor been cancelled. drain() waits for zero.
  std::atomic<std::uint64_t> foreground_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  /// Map payload for a pending timer; cancel() needs the foreground flag
  /// to release the drain counter without scanning the heap.
  struct PendingTimer {
    Task fn;
    bool foreground = false;
  };

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timers_;
  // Pending (uncancelled) timers; cancel() erases to kill one.
  std::unordered_map<TimerId, PendingTimer> timer_tasks_;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t next_timer_seq_ = 0;
  std::thread timer_thread_;

  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> posts_rejected_{0};
};

}  // namespace cake::runtime
