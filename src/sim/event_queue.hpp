#pragma once

/// \file event_queue.hpp
/// Min-heap event queue. Ties in time are broken by insertion sequence so
/// runs are deterministic regardless of heap internals. Cancellation is
/// lazy: cancelled items stay in the heap and are skipped when they
/// surface — but the heap is compacted whenever dead items outnumber live
/// ones, so long runs with heavy cancellation churn (e.g. probation
/// timers resolved early) cannot grow memory unboundedly.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/types.hpp"
#include "util/unique_function.hpp"

namespace mafic::sim {

using EventFn = util::UniqueFunction<void()>;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`; returns a handle usable with
  /// cancel(). Handles are unique for the lifetime of the queue.
  EventId push(SimTime t, EventFn fn);

  /// Lazily cancels a pending event. Returns false (and is harmless) if the
  /// id already executed, was already cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const noexcept { return live_.empty(); }
  std::size_t size() const noexcept { return live_.size(); }

  /// Time of the earliest live event; empty() must be false.
  SimTime next_time();

  /// Pops the earliest live event. empty() must be false.
  struct Popped {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  void clear();

  /// Heap entries currently held, live or cancelled (tests/diagnostics:
  /// bounded at < 2x live size + the compaction floor).
  std::size_t heap_footprint() const noexcept { return heap_.size(); }
  /// Times the queue rebuilt its heap to shed cancelled entries.
  std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  struct Item {
    SimTime time;
    EventId id;
    EventFn fn;

    bool operator>(const Item& other) const noexcept {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  void drop_dead_head();
  /// Removes every cancelled entry and re-heapifies. Called when dead
  /// entries exceed half the heap.
  void compact();
  void maybe_compact();

  std::vector<Item> heap_;  ///< std::*_heap on operator>
  std::unordered_set<EventId> live_;
  EventId next_id_ = 1;
  std::uint64_t compactions_ = 0;
};

}  // namespace mafic::sim
