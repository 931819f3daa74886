#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace mafic::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_FALSE(sim.pending());
}

TEST(Simulator, ScheduleAdvancesClockOnRun) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(7.0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  double seen = -1.0;
  sim.schedule_at(1.0, [&] { seen = sim.now(); });  // in the past
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(-3.0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 0.0);
}

TEST(Simulator, NaNDelayThrows) {
  // A NaN delay fails every comparison: a `delay > 0 ? ... : now` clamp
  // would turn it into "now" instead of reaching the queue's check.
  Simulator sim;
  const double nan = std::nan("");
  EXPECT_THROW(sim.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_timer(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_timer_at(nan, [] {}), std::invalid_argument);
  EXPECT_FALSE(sim.pending());
}

TEST(Simulator, RunUntilProcessesOnlyDueEvents) {
  Simulator sim;
  std::vector<int> ran;
  sim.schedule_at(1.0, [&] { ran.push_back(1); });
  sim.schedule_at(2.0, [&] { ran.push_back(2); });
  sim.schedule_at(3.0, [&] { ran.push_back(3); });
  sim.run_until(2.0);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_TRUE(sim.pending());
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(4.0);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, NestedSchedulingWithinEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i, [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(sim.pending());
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, WheelTimersInterleaveWithQueueEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_timer_at(0.030, [&] { order.push_back(3); });
  sim.schedule_at(0.010, [&] { order.push_back(1); });
  sim.schedule_timer_at(0.020, [&] { order.push_back(2); });
  sim.schedule_at(0.040, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.040);
}

TEST(Simulator, QueueEventsWinTiesAgainstWheelTimers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_timer_at(0.010, [&] { order.push_back(2); });
  sim.schedule_at(0.010, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CancelAndRescheduleTimers) {
  Simulator sim;
  bool cancelled_ran = false;
  std::vector<double> fired;
  const TimerId doomed =
      sim.schedule_timer(0.5, [&] { cancelled_ran = true; });
  const TimerId moved = sim.schedule_timer(0.5, [&] {
    fired.push_back(sim.now());
  });
  EXPECT_TRUE(sim.cancel_timer(doomed));
  EXPECT_TRUE(sim.reschedule_timer(moved, 1.5));
  sim.run();
  EXPECT_FALSE(cancelled_ran);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 1.5);
}

TEST(Simulator, TimerScheduledAfterIdlePeekFiresOnTime) {
  // Regression: run_until() peeks the wheel's next_time, advancing its
  // internal cursor toward a far-future timer; a timer scheduled *after*
  // that peek for an earlier time must still fire at its own time.
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_timer_at(100.0, [&] { fired.push_back(sim.now()); });
  sim.run_until(1.0);  // nothing fires; merely peeks the wheel
  EXPECT_TRUE(fired.empty());
  sim.schedule_timer_at(2.0, [&] { fired.push_back(sim.now()); });
  sim.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 100.0}));
}

}  // namespace
}  // namespace mafic::sim
