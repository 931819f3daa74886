#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/connector.hpp"
#include "util/rng.hpp"

namespace mafic::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(1.0, [&] { ran = true; });
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopIsHarmless) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidIdsIsHarmless) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(999999));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, PopSkipsCancelledHead) {
  EventQueue q;
  int value = 0;
  const EventId a = q.push(1.0, [&] { value = 1; });
  q.push(2.0, [&] { value = 2; });
  q.cancel(a);
  q.pop().fn();
  EXPECT_EQ(value, 2);
}

TEST(EventQueue, ClearEmptiesEverything) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, IdsAreUniqueAndIncreasing) {
  EventQueue q;
  EventId prev = 0;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.push(1.0, [] {});
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(EventQueue, PoppedEventReportsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(3.5, [] {});
  auto ev = q.pop();
  EXPECT_DOUBLE_EQ(ev.time, 3.5);
  EXPECT_EQ(ev.id, id);
}

TEST(EventQueue, CompactionBoundsCancelledGarbage) {
  EventQueue q;
  // Heavy probation-style churn: schedule and cancel in waves while a few
  // long-lived events stay resident. Without compaction the heap would
  // hold every cancelled corpse until it surfaced.
  std::vector<EventId> wave;
  for (int round = 0; round < 100; ++round) {
    wave.clear();
    for (int i = 0; i < 100; ++i) {
      wave.push_back(q.push(1000.0 + round + i * 0.001, [] {}));
    }
    for (const EventId id : wave) q.cancel(id);
  }
  q.push(1.0, [] {});
  // 10k cancelled entries went through; the heap must stay within 2x the
  // live size plus the compaction floor.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LT(q.heap_footprint(), 128u);
  EXPECT_GT(q.compactions(), 0u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
}

TEST(EventQueue, CompactionPreservesOrderAndLiveness) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    q.push(double(i), [&order, i] { order.push_back(i); });
    doomed.push_back(q.push(double(i) + 0.5, [] { FAIL(); }));
  }
  for (const EventId id : doomed) q.cancel(id);
  int expect = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ASSERT_EQ(order.back(), expect++);
  }
  EXPECT_EQ(expect, 200);
}

TEST(EventQueue, RejectsNaNTime) {
  // A NaN compares false both ways, so a heap holding one pops out of
  // order: the queue must refuse it and stay intact.
  EventQueue q;
  std::vector<double> order;
  for (const double t : {5.0, 3.0, std::nan(""), 1.0, 4.0, 2.0, 0.5, 6.0,
                         2.5}) {
    if (std::isnan(t)) {
      EXPECT_THROW(q.push(t, [] {}), std::invalid_argument);
      continue;
    }
    q.push(t, [&order, t] { order.push_back(t); });
  }
  EXPECT_EQ(q.size(), 8u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order,
            (std::vector<double>{0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0}));
  // Infinite times are ordered and stay accepted.
  q.push(std::numeric_limits<double>::infinity(), [] {});
  q.push(-std::numeric_limits<double>::infinity(), [] {});
  EXPECT_EQ(q.next_time(), -std::numeric_limits<double>::infinity());
}

TEST(EventQueue, SlabPlateausUnderChurn) {
  // 1M mixed push/pop/cancel operations with at most 64 live events: the
  // callable slab must stay at the concurrency high-water mark and the
  // heap within twice it, whatever the ids issued.
  constexpr std::size_t kMaxLive = 64;
  EventQueue q;
  util::Rng rng(17);
  std::vector<EventId> live;
  std::size_t peak_footprint = 0;
  double now = 0.0;
  for (int op = 0; op < 1'000'000; ++op) {
    const double action = rng.uniform01();
    if (live.size() < kMaxLive && (action < 0.5 || live.empty())) {
      live.push_back(q.push(now + rng.uniform(0.0, 10.0), [] {}));
    } else if (action < 0.75) {
      const std::size_t pick = rng.index(live.size());
      ASSERT_TRUE(q.cancel(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    } else {
      const auto ev = q.pop();
      now = ev.time;
      const auto it = std::find(live.begin(), live.end(), ev.id);
      ASSERT_NE(it, live.end());
      *it = live.back();
      live.pop_back();
    }
    ASSERT_EQ(q.size(), live.size());
    peak_footprint = std::max(peak_footprint, q.heap_footprint());
  }
  EXPECT_LE(q.slab_size(), kMaxLive);
  EXPECT_LE(peak_footprint, 2 * kMaxLive);
  EXPECT_GT(q.compactions(), 0u);
}

TEST(EventQueue, ClearInvalidatesOutstandingIds) {
  EventQueue q;
  bool ran = false;
  const EventId old_id = q.push(1.0, [] {});
  q.clear();
  // The new event takes the same slot; the old id must not reach it.
  const EventId new_id = q.push(1.0, [&] { ran = true; });
  EXPECT_EQ(q.slab_size(), 1u);
  EXPECT_GT(new_id, old_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  for (int i = 999; i >= 0; --i) {
    q.push(static_cast<double>(i % 37), [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
  }
}

/// A hand-off target the tests never call: they pop the queue directly.
class NullSink final : public Connector {
 public:
  void recv(PacketPtr) override {}
};

TEST(EventQueue, LanesAreKeyedByTheExactDelay) {
  EventQueue q;
  const LaneId a = q.lane(0.001);
  EXPECT_EQ(q.lane(0.001), a);
  EXPECT_NE(q.lane(std::nextafter(0.001, 1.0)), a);
  EXPECT_EQ(q.lane_count(), 2u);
  EXPECT_THROW(q.lane(std::nan("")), std::invalid_argument);
  EXPECT_EQ(q.lane_count(), 2u);
}

TEST(EventQueue, ClearDestroysPendingHandOffs) {
  Packet::trim_freelist();
  NullSink sink;
  {
    EventQueue q;
    const LaneId lane = q.lane(0.5);
    for (int i = 0; i < 20; ++i) {  // past the first ring growth
      q.push_hand_off(lane, 0.0, &sink, std::make_unique<Packet>());
    }
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(Packet::freelist_size(), 20u);
    // The lane survives clear(); the destructor frees what is left.
    q.push_hand_off(lane, 0.0, &sink, std::make_unique<Packet>());
    EXPECT_DOUBLE_EQ(q.next_time(), 0.5);
    EXPECT_EQ(Packet::freelist_size(), 19u);
  }
  EXPECT_EQ(Packet::freelist_size(), 20u);
}

}  // namespace
}  // namespace mafic::sim
