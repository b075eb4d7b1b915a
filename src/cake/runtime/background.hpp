// Self-rearming periodic background work on a Transport.
//
// Every standing chore of the overlay runs on this one helper: broker lease
// renewal and reaping, the grace-pen and quarantine ticks, journal sync,
// subscriber renewal and the link heartbeat. Transport timers are
// fire-and-forget, so a stale closure must notice it was superseded and die
// silently. `start()` bumps a generation and arms a fresh chain; `stop()`
// bumps it so any in-flight closure no-ops; and a closure re-arms only if
// its generation is still current after the callback returns, so a
// superseded chain never re-arms. The callback may `stop()` (or `start()`)
// its own task: the callable is fixed at construction and never replaced
// while it runs. The timer chain holds only `this`, so the owner must
// outlive pending firings — the same ownership rule every Transport user
// already obeys (transport.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "cake/runtime/transport.hpp"

namespace cake::runtime {

class PeriodicTask {
public:
  PeriodicTask(Transport& transport, Time interval, std::function<void()> fn)
      : transport_(transport), interval_(interval), fn_(std::move(fn)) {}

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Runs the callback every interval (first firing one interval from now)
  /// until `stop()`; orphans any chain an earlier `start()` armed.
  void start() {
    running_ = true;
    arm(++generation_);
  }

  /// Orphans the pending firing, if any.
  void stop() noexcept {
    running_ = false;
    ++generation_;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }

private:
  void arm(std::uint64_t gen) {
    transport_.schedule_background_after(interval_, [this, gen] {
      if (gen != generation_) return;  // superseded; let the chain die
      fn_();
      if (gen == generation_) arm(gen);
    });
  }

  Transport& transport_;
  Time interval_;
  std::function<void()> fn_;
  std::uint64_t generation_ = 0;
  bool running_ = false;
};

}  // namespace cake::runtime
