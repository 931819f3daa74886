#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace mafic::sim {
namespace {

constexpr double kRes = 0.001;  // 1 ms ticks for round numbers

TEST(TimerWheel, FiresInTimeOrder) {
  TimerWheel w(kRes);
  std::vector<int> order;
  w.schedule_at(0.030, [&] { order.push_back(3); });
  w.schedule_at(0.010, [&] { order.push_back(1); });
  w.schedule_at(0.020, [&] { order.push_back(2); });
  while (!w.empty()) w.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, QuantizesUpToTickBoundary) {
  TimerWheel w(kRes);
  w.schedule_at(0.0101, [] {});
  EXPECT_DOUBLE_EQ(w.next_time(), 0.011);
  auto popped = w.pop();
  EXPECT_DOUBLE_EQ(popped.time, 0.011);

  // An exact boundary stays on its tick.
  TimerWheel w2(kRes);
  w2.schedule_at(0.004, [] {});
  EXPECT_DOUBLE_EQ(w2.next_time(), 0.004);
}

TEST(TimerWheel, SameTickFiresInScheduleOrder) {
  TimerWheel w(kRes);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    // All quantize to tick 5 despite unsorted sub-tick offsets.
    w.schedule_at(0.005 - 1e-5 * (i % 3), [&order, i] {
      order.push_back(i);
    });
  }
  while (!w.empty()) w.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerWheel, CancelPreventsExecution) {
  TimerWheel w(kRes);
  bool ran = false;
  const TimerId id = w.schedule_at(0.010, [&] { ran = true; });
  w.schedule_at(0.020, [] {});
  EXPECT_EQ(w.size(), 2u);
  EXPECT_TRUE(w.cancel(id));
  EXPECT_EQ(w.size(), 1u);
  while (!w.empty()) w.pop().fn();
  EXPECT_FALSE(ran);
}

TEST(TimerWheel, CancelIsIdempotentAndRejectsStaleIds) {
  TimerWheel w(kRes);
  const TimerId id = w.schedule_at(0.010, [] {});
  EXPECT_TRUE(w.cancel(id));
  EXPECT_FALSE(w.cancel(id));
  EXPECT_FALSE(w.cancel(kInvalidTimer));
  EXPECT_FALSE(w.cancel(0xdeadbeefull));

  // A fired timer's id is stale too.
  const TimerId id2 = w.schedule_at(0.010, [] {});
  w.pop().fn();
  EXPECT_FALSE(w.cancel(id2));
}

TEST(TimerWheel, RecycledNodeGetsFreshGeneration) {
  TimerWheel w(kRes);
  const TimerId a = w.schedule_at(0.010, [] {});
  w.cancel(a);
  // The slab node is recycled; the stale id must not cancel the new timer.
  bool ran = false;
  w.schedule_at(0.010, [&] { ran = true; });
  EXPECT_FALSE(w.cancel(a));
  while (!w.empty()) w.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(TimerWheel, RescheduleMovesFiringTime) {
  TimerWheel w(kRes);
  std::vector<int> order;
  const TimerId id = w.schedule_at(0.010, [&] { order.push_back(1); });
  w.schedule_at(0.020, [&] { order.push_back(2); });
  EXPECT_TRUE(w.reschedule(id, 0.030));
  while (!w.empty()) w.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(TimerWheel, RescheduleKeepsTheId) {
  TimerWheel w(kRes);
  bool ran = false;
  const TimerId id = w.schedule_at(0.010, [&] { ran = true; });
  EXPECT_TRUE(w.reschedule(id, 0.050));
  EXPECT_TRUE(w.reschedule(id, 0.090));  // still valid after a move
  EXPECT_TRUE(w.cancel(id));             // and still cancellable
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(ran);
}

TEST(TimerWheel, RescheduleStaleIdFails) {
  TimerWheel w(kRes);
  const TimerId id = w.schedule_at(0.010, [] {});
  w.cancel(id);
  EXPECT_FALSE(w.reschedule(id, 0.050));
  EXPECT_FALSE(w.reschedule(kInvalidTimer, 0.050));
}

TEST(TimerWheel, LongDelaysCascadeAcrossLevels) {
  TimerWheel w(kRes);
  std::vector<int> order;
  // Level 0 (< 256 ticks), 1 (< 2^16), 2 (< 2^24), 3 and beyond horizon.
  w.schedule_at(0.100, [&] { order.push_back(0); });       // 100 ticks
  w.schedule_at(10.0, [&] { order.push_back(1); });        // 10^4 ticks
  w.schedule_at(2000.0, [&] { order.push_back(2); });      // 2*10^6 ticks
  w.schedule_at(100000.0, [&] { order.push_back(3); });    // 10^8 ticks
  w.schedule_at(6000000.0, [&] { order.push_back(4); });   // 6*10^9 ticks
  std::vector<double> times;
  while (!w.empty()) {
    auto p = w.pop();
    times.push_back(p.time);
    p.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(times[0], 0.100);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
  EXPECT_DOUBLE_EQ(times[2], 2000.0);
  EXPECT_DOUBLE_EQ(times[3], 100000.0);
  EXPECT_DOUBLE_EQ(times[4], 6000000.0);
}

TEST(TimerWheel, ScheduleDuringFireJoinsOrFollowsTick) {
  TimerWheel w(kRes);
  std::vector<int> order;
  w.schedule_at(0.005, [&] {
    order.push_back(0);
    // Same-tick (and past-time) schedules fire later this same tick...
    w.schedule_at(0.005, [&] { order.push_back(1); });
    w.schedule_at(0.001, [&] { order.push_back(2); });
    // ...future schedules fire on their own tick.
    w.schedule_at(0.006, [&] { order.push_back(3); });
  });
  std::vector<double> times;
  while (!w.empty()) {
    auto p = w.pop();
    times.push_back(p.time);
    p.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(times[1], 0.005);  // joined the firing tick
  EXPECT_DOUBLE_EQ(times[2], 0.005);  // past time clamps to the cursor
  EXPECT_DOUBLE_EQ(times[3], 0.006);
}

TEST(TimerWheel, RescheduleOutOfFiringTick) {
  TimerWheel w(kRes);
  std::vector<int> order;
  TimerId sibling = kInvalidTimer;
  w.schedule_at(0.005, [&] {
    order.push_back(0);
    // The sibling is already collected for this tick; pushing it to a
    // future tick must keep it from firing now — and its id stays live.
    EXPECT_TRUE(w.reschedule(sibling, 0.009));
  });
  sibling = w.schedule_at(0.005, [&] { order.push_back(1); });
  std::vector<double> times;
  while (!w.empty()) {
    auto p = w.pop();
    times.push_back(p.time);
    p.fn();
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(times[0], 0.005);
  EXPECT_DOUBLE_EQ(times[1], 0.009);
}

TEST(TimerWheel, CancelDuringFiringTick) {
  TimerWheel w(kRes);
  bool sibling_ran = false;
  TimerId sibling = kInvalidTimer;
  w.schedule_at(0.005, [&] { EXPECT_TRUE(w.cancel(sibling)); });
  sibling = w.schedule_at(0.005, [&] { sibling_ran = true; });
  while (!w.empty()) w.pop().fn();
  EXPECT_FALSE(sibling_ran);
}

TEST(TimerWheel, PeekThenEarlierScheduleRewindsCursor) {
  // next_time() may run the cursor ahead to the then-earliest timer; a
  // later schedule for an *earlier* time must still fire at its own time
  // (regression: it used to be clamped into the far-future due batch).
  TimerWheel w(kRes);
  std::vector<double> fired;
  w.schedule_at(100.0, [&] { fired.push_back(100.0); });
  EXPECT_DOUBLE_EQ(w.next_time(), 100.0);  // peek advances the cursor
  w.schedule_at(2.0, [&] { fired.push_back(2.0); });
  EXPECT_DOUBLE_EQ(w.next_time(), 2.0);
  std::vector<double> times;
  while (!w.empty()) {
    auto p = w.pop();
    times.push_back(p.time);
    p.fn();
  }
  EXPECT_EQ(fired, (std::vector<double>{2.0, 100.0}));
  EXPECT_EQ(times, (std::vector<double>{2.0, 100.0}));
}

TEST(TimerWheel, PeekThenEarlierRescheduleRewindsCursor) {
  TimerWheel w(kRes);
  std::vector<double> fired;
  const TimerId far = w.schedule_at(100.0, [&] { fired.push_back(1); });
  w.schedule_at(200.0, [&] { fired.push_back(2); });
  EXPECT_DOUBLE_EQ(w.next_time(), 100.0);
  EXPECT_TRUE(w.reschedule(far, 0.5));  // earlier than the peeked cursor
  std::vector<double> times;
  while (!w.empty()) {
    auto p = w.pop();
    times.push_back(p.time);
    p.fn();
  }
  EXPECT_EQ(fired, (std::vector<double>{1, 2}));
  EXPECT_EQ(times, (std::vector<double>{0.5, 200.0}));
}

TEST(TimerWheel, RewindNeverGoesBehindFiredTicks) {
  TimerWheel w(kRes);
  std::vector<double> times;
  w.schedule_at(0.010, [] {});
  auto p = w.pop();  // fires tick 10: committed
  EXPECT_DOUBLE_EQ(p.time, 0.010);
  // A past-time schedule now clamps to the fired tick, never earlier.
  w.schedule_at(0.001, [] {});
  EXPECT_DOUBLE_EQ(w.next_time(), 0.010);
}

TEST(TimerWheel, ClearDropsEverythingAndInvalidatesIds) {
  TimerWheel w(kRes);
  bool ran = false;
  const TimerId id = w.schedule_at(0.010, [&] { ran = true; });
  w.schedule_at(5.0, [&] { ran = true; });
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.cancel(id));
  // Wheel is usable after clear.
  w.schedule_at(0.010, [] {});
  EXPECT_EQ(w.size(), 1u);
  while (!w.empty()) w.pop().fn();
  EXPECT_FALSE(ran);
}

TEST(TimerWheel, RejectsTimesBeyondTickRange) {
  // NaN, +inf and times whose tick count overflows uint64_t have no tick
  // to land on: schedule_at and reschedule must throw, not convert.
  TimerWheel w(kRes);
  const TimerId id = w.schedule_at(0.010, [] {});
  for (const double t : {std::nan(""), std::numeric_limits<double>::infinity(),
                         1e300, 0x1p65 * kRes}) {
    EXPECT_THROW(w.schedule_at(t, [] {}), std::invalid_argument) << t;
    EXPECT_THROW(w.reschedule(id, t), std::invalid_argument) << t;
  }
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.slab_size(), 1u);
  // -inf stays a past time: it clamps to the cursor.
  w.schedule_at(-std::numeric_limits<double>::infinity(), [] {});
  EXPECT_DOUBLE_EQ(w.next_time(), 0.0);
  EXPECT_NE(w.pop().id, id);
  EXPECT_EQ(w.pop().id, id);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, SlabPlateausUnderChurn) {
  TimerWheel w(kRes);
  // 64 concurrent timers, continuously cancelled and re-armed: the node
  // slab must plateau at the concurrency high-water mark, not grow.
  std::vector<TimerId> ids;
  double t = 0.0;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(w.schedule_at(t += 0.001, [] {}));
  }
  const std::size_t plateau = w.slab_size();
  for (int round = 0; round < 1000; ++round) {
    for (auto& id : ids) {
      w.cancel(id);
      id = w.schedule_at(t += 0.001, [] {});
    }
  }
  EXPECT_EQ(w.slab_size(), plateau);
}

/// Randomized schedule/cancel/reschedule against a reference multimap:
/// firing order and times must match exactly.
TEST(TimerWheel, FuzzAgainstReferenceOrdering) {
  TimerWheel w(kRes);
  util::Rng rng(99);

  struct Ref {
    std::uint64_t tick;
    std::uint64_t seq;
    int tag;
  };
  std::vector<Ref> live;
  std::vector<TimerId> ids;
  std::uint64_t seq = 0;
  int tag = 0;
  std::vector<int> fired_wheel;

  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.uniform_int(0, 3);
    if (op <= 1 || live.empty()) {  // schedule
      const std::uint64_t tick = 1 + rng.uniform_int(0, 70000);
      const int mytag = tag++;
      ids.push_back(w.schedule_at(double(tick) * kRes,
                                  [&fired_wheel, mytag] {
                                    fired_wheel.push_back(mytag);
                                  }));
      live.push_back({tick, seq++, mytag});
    } else if (op == 2) {  // cancel a random live timer
      const std::size_t pick = rng.index(live.size());
      EXPECT_TRUE(w.cancel(ids[pick]));
      ids.erase(ids.begin() + std::ptrdiff_t(pick));
      live.erase(live.begin() + std::ptrdiff_t(pick));
    } else {  // reschedule a random live timer
      const std::size_t pick = rng.index(live.size());
      const std::uint64_t tick = 1 + rng.uniform_int(0, 70000);
      EXPECT_TRUE(w.reschedule(ids[pick], double(tick) * kRes));
      live[pick].tick = tick;
      live[pick].seq = seq++;
    }
  }

  // Expected order: by (tick, seq).
  std::vector<int> expected;
  {
    std::multimap<std::pair<std::uint64_t, std::uint64_t>, int> bykey;
    for (const auto& r : live) bykey.insert({{r.tick, r.seq}, r.tag});
    for (const auto& [k, v] : bykey) expected.push_back(v);
  }

  EXPECT_EQ(w.size(), live.size());
  while (!w.empty()) w.pop().fn();
  EXPECT_EQ(fired_wheel, expected);
}

}  // namespace
}  // namespace mafic::sim
