// Transport: the executor seam between protocol code and whatever actually
// runs it (DESIGN.md §11).
//
// Every runtime above the wire — brokers, endpoints, the link layer's
// retransmit/heartbeat machinery — needs exactly four services: a clock, a
// way to run a closure "soon" on some execution lane, one-shot timers, and
// a quiescence point. This interface is that contract, and nothing more,
// so the same protocol code drives two very different backends:
//
//   * `SimTransport` — the deterministic single-threaded virtual-time
//     `sim::Scheduler`. Every test and chaos/differential oracle runs here;
//     it is the semantic reference.
//   * `ThreadedTransport` — real worker threads, one bounded lock-free
//     MPSC queue each, batch-draining tasks so per-wakeup costs amortize
//     over N tasks, with a timer service on the side. `bench_concurrency`
//     and `bench_hotpath` scale on it; TSan holds it honest.
//
// Contract highlights (the conformance suite in tests/transport/ pins all
// of these against both backends):
//
//   * Timers with distinct deadlines fire in deadline order; `cancel()` of
//     a pending cancellable timer guarantees the task never runs and
//     returns true exactly once. Plain timers are fire-and-forget: cheaper
//     (the sim backend forwards them to the Scheduler untouched, keeping
//     the reliable-link hot path at zero allocations), suppressed when
//     stale by the caller's epoch idiom rather than by cancellation.
//   * *Foreground* work (post, schedule_after) keeps `drain()` waiting;
//     *background* work (schedule_background_*) never does — identical to
//     the Scheduler's foreground/background split, which is what makes
//     "run to quiescence" well-defined for soft-state protocols on both
//     backends.
//   * `post(lane, fn)` serializes: two posts to the same lane never run
//     concurrently and run in post order per producer. Posts to distinct
//     lanes may run in parallel (and do, on the threaded backend — the
//     delivery fabric maps each overlay node onto one lane, DESIGN.md §14).
//   * Tasks may post/schedule reentrantly from inside a task.
//
// Ownership rule: the Transport outlives every object holding a reference
// to it, and the referees outlive their pending timers' *firing* — pending
// tasks capture `this` of their schedulers, so protocol objects either
// cancel on teardown or (the sim idiom) carry an epoch that orphans stale
// closures.
#pragma once

#include <cstdint>
#include <functional>

namespace cake::runtime {

/// Microseconds — virtual on the sim backend, steady-clock on the threaded
/// one. Layout-compatible with sim::Time by construction.
using Time = std::uint64_t;

/// A unit of work. Executed exactly once, never copied after submission.
using Task = std::function<void()>;

/// Handle of a pending timer; 0 is never issued and always safe to cancel.
using TimerId = std::uint64_t;

inline constexpr TimerId kNoTimer = 0;

/// Sentinel lane index: the calling thread is not an executor-lane worker.
inline constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

namespace detail {
/// Set by ThreadedTransport worker threads for their lifetime; kNoLane
/// everywhere else (main thread, timer thread, all sim-backend code).
/// Inline thread_local so header-only consumers (sim's delivery fabric)
/// need no link-time dependency on the threaded backend.
inline thread_local std::size_t t_lane_index = kNoLane;
}  // namespace detail

/// Index of the ThreadedTransport lane the calling thread serves, or
/// kNoLane when the caller is not a lane worker. Lets shared facilities
/// (per-lane counters, the network delivery fabric) pick the
/// contention-free slot for the current thread.
[[nodiscard]] inline std::size_t current_lane() noexcept {
  return detail::t_lane_index;
}

class Transport {
public:
  virtual ~Transport() = default;

  /// Current time in microseconds. Monotonic, starts near 0.
  [[nodiscard]] virtual Time now() const noexcept = 0;

  /// Number of execution lanes. 1 on the sim backend; the worker count on
  /// the threaded one. `post(lane, …)` indices wrap modulo this.
  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;

  /// Runs `fn` as soon as the target lane gets to it (foreground).
  virtual void post(Task fn) = 0;
  /// Lane-addressed post: `lane % workers()` picks the executor. All tasks
  /// on one lane are serialized; that is the lock the fabric relies on.
  virtual void post(std::size_t lane, Task fn) = 0;

  /// One-shot foreground timer `delay` from now. Fire-and-forget.
  virtual void schedule_after(Time delay, Task fn) = 0;

  /// One-shot background timers: drain() does not wait for these — they
  /// model standing periodic work (lease renewal, RTO, heartbeats) that
  /// re-arms itself forever. Fire-and-forget: staleness is the caller's
  /// problem (epoch idiom), which is what keeps these allocation-free on
  /// the hot path.
  virtual void schedule_background_after(Time delay, Task fn) = 0;
  virtual void schedule_background_at(Time at, Task fn) = 0;

  /// One-shot *cancellable* background timer. May cost a tracking
  /// allocation — use the fire-and-forget variants on hot paths.
  virtual TimerId schedule_cancellable_after(Time delay, Task fn) = 0;

  /// Cancels a pending cancellable timer. True iff the timer existed and
  /// had neither fired nor been cancelled — after true, the task will
  /// never run.
  virtual bool cancel(TimerId id) = 0;

  /// Runs (sim) or waits (threaded) until no foreground work remains —
  /// every post and every foreground timer has executed, including ones
  /// submitted by tasks during the drain itself.
  virtual void drain() = 0;

protected:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
};

}  // namespace cake::runtime
