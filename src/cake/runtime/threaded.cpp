#include "cake/runtime/threaded.hpp"

#include <algorithm>

#include "cake/util/env.hpp"

namespace cake::runtime {

namespace {

/// The lane this thread works, if any: a worker defers, others wait.
thread_local const void* t_current_lane = nullptr;

}  // namespace

std::size_t thread_limit() noexcept {
  if (const auto env = util::env_u64("CAKE_THREADS")) {
    return std::clamp<std::size_t>(static_cast<std::size_t>(*env), 1,
                                   kMaxWorkers);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, kMaxWorkers);
}

std::size_t resolve_workers(std::size_t requested) noexcept {
  const std::size_t limit = thread_limit();
  return requested == 0 ? limit : std::min(requested, limit);
}

ThreadedTransport::ThreadedTransport(ThreadedOptions options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  const std::size_t n = resolve_workers(options_.workers);
  options_.workers = n;
  options_.batch = std::max<std::size_t>(options_.batch, 1);
  lanes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    lanes_.push_back(std::make_unique<Lane>(options_.queue_capacity));
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane* l = lanes_[i].get();
    l->thread = std::thread([this, l, i] { worker_loop(*l, i); });
  }
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadedTransport::~ThreadedTransport() { shutdown(); }

Time ThreadedTransport::now() const noexcept {
  return static_cast<Time>(std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - start_)
                               .count());
}

void ThreadedTransport::post(std::size_t lane, LaneTask task) {
  if (stop_.load(std::memory_order_acquire)) {
    posts_rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  foreground_.fetch_add(1, std::memory_order_relaxed);
  enqueue(*lanes_[lane % lanes_.size()], Item{std::move(task), true});
}

void ThreadedTransport::enqueue(Lane& lane, Item item) {
  const std::size_t index = current_lane();
  if (index < lanes_.size() && lanes_[index].get() == t_current_lane) {
    Lane& self = *lanes_[index];
    if (self.sent == self.outbox.size() &&
        lane.queue.try_push(std::move(item))) {
      wake(lane);
      return;
    }
    outboxed_.fetch_add(1, std::memory_order_relaxed);
    self.deferred.fetch_add(1, std::memory_order_relaxed);
    self.outbox.emplace_back(&lane, std::move(item));
    return;
  }
  while (!lane.queue.try_push(std::move(item))) std::this_thread::yield();
  wake(lane);
}

void ThreadedTransport::flush_outbox(Lane& self) {
  auto& box = self.outbox;
  for (; self.sent < box.size(); ++self.sent) {
    auto& [target, item] = box[self.sent];
    if (!target->queue.try_push(std::move(item))) break;
    wake(*target);
    outboxed_.fetch_sub(1, std::memory_order_release);  // publishes the push
  }
  // Drop the sent prefix once it is half the outbox, so a backlog that
  // never empties cannot grow the vector without bound.
  if (self.sent > 0 && self.sent * 2 >= box.size()) {
    box.erase(box.begin(),
              box.begin() + static_cast<std::ptrdiff_t>(self.sent));
    self.sent = 0;
  }
}

void ThreadedTransport::wake(Lane& lane) {
  // Dekker handshake with worker_loop: the push (a release store) must not
  // be reordered after the `asleep` load, or this producer and a worker
  // going to sleep can each miss the other's write. Only a full fence
  // forbids that store-load reordering; the worker fences symmetrically.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (lane.asleep.load(std::memory_order_seq_cst)) {
    std::lock_guard lock{lane.mutex};
    lane.cv.notify_one();
  }
}

void ThreadedTransport::finish_foreground(std::uint64_t n) noexcept {
  if (foreground_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lock{drain_mutex_};
    drain_cv_.notify_all();
  }
}

void ThreadedTransport::worker_loop(Lane& lane, std::size_t index) {
  t_current_lane = &lane;
  detail::t_lane_index = index;
  Item item;
  for (;;) {
    std::size_t n = 0;
    std::uint64_t fg = 0;
    while (n < options_.batch &&
           (flush_outbox(lane), lane.queue.try_pop(item))) {
      item.fn();
      item.fn.reset();  // drop captures before the next task, or a sleep
      fg += item.foreground ? 1 : 0;
      ++n;
    }
    if (n > 0) {
      lane.tasks.fetch_add(n, std::memory_order_relaxed);
      lane.batches.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t seen = lane.max_batch.load(std::memory_order_relaxed);
      while (n > seen &&
             !lane.max_batch.compare_exchange_weak(seen, n,
                                                   std::memory_order_relaxed)) {
      }
      if (fg > 0) finish_foreground(fg);
      continue;
    }
    if (lane.sent < lane.outbox.size()) {
      std::this_thread::yield();  // never sleep on a deferred task
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Shutdown drains before exit, other workers' outboxes included.
      if (outboxed_.load(std::memory_order_acquire) == 0 && lane.queue.empty())
        break;
      continue;
    }
    std::unique_lock lock{lane.mutex};
    lane.asleep.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // pairs with wake()
    // Recheck under the flag: a producer that pushed before seeing the
    // flag is observed here; one that pushed after will notify. The
    // bounded wait is a belt over the Dekker braces; a timeout that finds
    // work queued is a lost wakeup, and counted as one.
    if (lane.queue.empty() && !stop_.load(std::memory_order_acquire) &&
        lane.cv.wait_for(lock, std::chrono::milliseconds(50)) ==
            std::cv_status::timeout &&
        !lane.queue.empty())
      lane.missed_wakeups.fetch_add(1, std::memory_order_relaxed);
    lane.asleep.store(false, std::memory_order_relaxed);
  }
  t_current_lane = nullptr;
  detail::t_lane_index = kNoLane;
}

void ThreadedTransport::schedule_after(Time delay, Task fn) {
  schedule_at_internal(now() + delay, std::move(fn), true);
}

void ThreadedTransport::schedule_background_after(Time delay, Task fn) {
  schedule_at_internal(now() + delay, std::move(fn), false);
}

void ThreadedTransport::schedule_background_at(Time at, Task fn) {
  schedule_at_internal(std::max(at, now()), std::move(fn), false);
}

TimerId ThreadedTransport::schedule_cancellable_after(Time delay, Task fn) {
  return schedule_at_internal(now() + delay, std::move(fn), false);
}

TimerId ThreadedTransport::schedule_at_internal(Time at, Task fn,
                                                bool foreground) {
  if (stop_.load(std::memory_order_acquire)) {
    posts_rejected_.fetch_add(1, std::memory_order_relaxed);
    return kNoTimer;
  }
  if (foreground) foreground_.fetch_add(1, std::memory_order_relaxed);
  // Lane affinity: a timer fires on the lane that scheduled it, so a
  // broker's lease/RTO/heartbeat callbacks stay serialized with the rest of
  // that broker's work — the single-writer invariant the sim backend gives
  // for free with one lane. Non-worker threads (main, tests) get lane 0.
  const std::size_t lane = current_lane() == kNoLane ? 0 : current_lane();
  TimerId id;
  {
    std::lock_guard lock{timer_mutex_};
    id = next_timer_id_++;
    timers_.push(TimerEntry{at, next_timer_seq_++, id, lane, foreground});
    timer_tasks_.emplace(id, PendingTimer{std::move(fn), foreground});
  }
  timer_cv_.notify_one();
  return id;
}

bool ThreadedTransport::cancel(TimerId id) {
  bool foreground = false;
  {
    std::lock_guard lock{timer_mutex_};
    const auto it = timer_tasks_.find(id);
    if (it == timer_tasks_.end()) return false;  // fired or already cancelled
    foreground = it->second.foreground;
    // The heap entry stays behind as a tombstone; the timer loop skips ids
    // that are no longer in the map.
    timer_tasks_.erase(it);
  }
  if (foreground) finish_foreground(1);
  return true;
}

void ThreadedTransport::timer_loop() {
  std::unique_lock lock{timer_mutex_};
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (timers_.empty()) {
      timer_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    const Time due = timers_.top().at;
    const Time current = now();
    if (current < due) {
      timer_cv_.wait_until(lock,
                           start_ + std::chrono::microseconds(due));
      continue;
    }
    // Collect everything due, release the lock, then hand off to lanes —
    // enqueue can block on backpressure and must not hold the timer lock.
    std::vector<std::pair<TimerEntry, Task>> ready;
    while (!timers_.empty() && timers_.top().at <= current) {
      TimerEntry entry = timers_.top();
      timers_.pop();
      const auto it = timer_tasks_.find(entry.id);
      if (it == timer_tasks_.end()) continue;  // cancelled tombstone
      ready.emplace_back(entry, std::move(it->second.fn));
      timer_tasks_.erase(it);
    }
    lock.unlock();
    for (auto& [entry, task] : ready) {
      timers_fired_.fetch_add(1, std::memory_order_relaxed);
      // Foreground accounting was charged at schedule time and transfers
      // to the queued item; the worker releases it after execution.
      enqueue(*lanes_[entry.lane % lanes_.size()],
              Item{LaneTask{std::move(task)}, entry.foreground});
    }
    lock.lock();
  }
  // Shutdown: discard timers that never came due; un-count foreground ones
  // so a concurrent drain() cannot wait on work that will never run.
  std::uint64_t orphaned_foreground = 0;
  for (const auto& [id, pending] : timer_tasks_)
    if (pending.foreground) ++orphaned_foreground;
  timer_tasks_.clear();
  while (!timers_.empty()) timers_.pop();
  lock.unlock();
  if (orphaned_foreground > 0) finish_foreground(orphaned_foreground);
}

void ThreadedTransport::drain() {
  std::unique_lock lock{drain_mutex_};
  // The bounded wait covers the notify/recheck race without requiring the
  // last finisher to hold drain_mutex_ across its counter decrement.
  while (foreground_.load(std::memory_order_acquire) != 0)
    drain_cv_.wait_for(lock, std::chrono::milliseconds(50));
}

void ThreadedTransport::shutdown() {
  if (joined_) return;
  joined_ = true;
  stop_.store(true, std::memory_order_release);
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (auto& lane : lanes_) {
    {
      std::lock_guard lock{lane->mutex};
      lane->cv.notify_all();
    }
    if (lane->thread.joinable()) lane->thread.join();
  }
}

ThreadedStats ThreadedTransport::stats() const noexcept {
  ThreadedStats s;
  for (const auto& lane : lanes_) {
    s.tasks += lane->tasks.load(std::memory_order_relaxed);
    s.batches += lane->batches.load(std::memory_order_relaxed);
    s.max_batch = std::max(s.max_batch,
                           lane->max_batch.load(std::memory_order_relaxed));
    s.missed_wakeups += lane->missed_wakeups.load(std::memory_order_relaxed);
    s.deferred += lane->deferred.load(std::memory_order_relaxed);
  }
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.posts_rejected = posts_rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cake::runtime
