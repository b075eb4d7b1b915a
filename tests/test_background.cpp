// Contract of runtime::PeriodicTask, the one helper every standing chore
// (lease renewal and reaping, the grace-pen and quarantine ticks, journal
// sync, the link heartbeat) runs on: one live chain at a time, however
// start() and stop() interleave with pending firings, and a callback may
// stop its own task without leaving a closure behind.
#include "cake/runtime/background.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cake/runtime/sim_transport.hpp"
#include "cake/sim/sim.hpp"

namespace cake::runtime {
namespace {

constexpr Time kInterval = 100;

struct Fx {
  sim::Scheduler scheduler;
  SimTransport transport{scheduler};
  std::vector<Time> fired;
  PeriodicTask task{transport, kInterval,
                    [this] { fired.push_back(scheduler.now()); }};

  void run_until(Time t) { scheduler.run_until(t); }
};

TEST(PeriodicTask, FiresEveryIntervalFromStartUntilStopped) {
  Fx fx;
  EXPECT_FALSE(fx.task.running());
  fx.task.start();
  EXPECT_TRUE(fx.task.running());
  fx.run_until(350);
  EXPECT_EQ(fx.fired, (std::vector<Time>{100, 200, 300}));
  fx.task.stop();
  EXPECT_FALSE(fx.task.running());
  fx.run_until(1000);
  EXPECT_EQ(fx.fired.size(), 3u);
  EXPECT_EQ(fx.scheduler.pending(), 0u);  // the orphan fired and died
}

TEST(PeriodicTask, CallbackThatStopsItsTaskFiresNoMoreAndLeavesNothingPending) {
  sim::Scheduler scheduler;
  SimTransport transport{scheduler};
  const std::size_t baseline = scheduler.pending();
  int count = 0;
  PeriodicTask* self = nullptr;
  PeriodicTask task{transport, kInterval, [&] {
                      if (++count == 3) self->stop();
                    }};
  self = &task;
  task.start();
  scheduler.run_until(300);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
  // Checked at the instant of the stopping firing: nothing was re-armed.
  EXPECT_EQ(scheduler.pending(), baseline);
  scheduler.run_until(2000);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(scheduler.pending(), baseline);
}

TEST(PeriodicTask, CallbackMayRestartItsOwnTaskWithoutForkingTheChain) {
  sim::Scheduler scheduler;
  SimTransport transport{scheduler};
  std::vector<Time> fired;
  PeriodicTask* self = nullptr;
  PeriodicTask task{transport, kInterval, [&] {
                      fired.push_back(scheduler.now());
                      self->stop();
                      self->start();
                    }};
  self = &task;
  task.start();
  scheduler.run_until(500);
  EXPECT_EQ(fired, (std::vector<Time>{100, 200, 300, 400, 500}));
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(PeriodicTask, StartAfterStopRunsExactlyOneChain) {
  Fx fx;
  fx.task.start();
  fx.run_until(150);
  fx.task.stop();
  fx.run_until(1000);  // the stopped chain's pending firing dies at 200
  ASSERT_EQ(fx.fired, (std::vector<Time>{100}));
  EXPECT_EQ(fx.scheduler.pending(), 0u);

  fx.task.start();
  fx.run_until(1500);
  EXPECT_EQ(fx.fired,
            (std::vector<Time>{100, 1100, 1200, 1300, 1400, 1500}));
  EXPECT_EQ(fx.scheduler.pending(), 1u);
}

TEST(PeriodicTask, StopThenStartWithinOneIntervalDoesNotDoubleTheRate) {
  Fx fx;
  fx.task.start();
  fx.run_until(150);  // fired at 100; the next firing is pending at 200
  fx.task.stop();
  fx.task.start();    // the fresh chain fires at 250, 350, …
  fx.run_until(650);
  EXPECT_EQ(fx.fired, (std::vector<Time>{100, 250, 350, 450, 550, 650}));
  EXPECT_EQ(fx.scheduler.pending(), 1u);
}

TEST(PeriodicTask, StartWhileRunningOrphansTheEarlierChain) {
  Fx fx;
  fx.task.start();
  fx.run_until(50);
  fx.task.start();  // no stop(): the chain armed at 0 is superseded
  fx.run_until(450);
  EXPECT_EQ(fx.fired, (std::vector<Time>{150, 250, 350, 450}));
  EXPECT_EQ(fx.scheduler.pending(), 1u);
}

}  // namespace
}  // namespace cake::runtime
