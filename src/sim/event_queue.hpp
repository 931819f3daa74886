#pragma once

/// \file event_queue.hpp
/// Min-heap event queue for exact-time, one-shot events.
///
///  * The heap holds 16-byte POD `{time, id}` entries; the callables live
///    in a slab of slots recycled through a free list, so a sift step
///    moves two words and never a callable.
///  * An id carries its slot: `id = (seq << 24) | slot`, where `seq` is
///    the push counter (starting at 1). Ordering entries by `(time, id)`
///    is therefore ordering by `(time, push order)`: equal times fire in
///    schedule order, keeping runs deterministic regardless of heap
///    internals. Ids are unique and strictly increasing for the lifetime
///    of the queue, across clear() too.
///  * An entry is live exactly when its slot still holds its id, so a
///    liveness check is one compare. Cancellation frees the slot at once
///    and leaves the heap entry behind; it is skipped when it surfaces,
///    and the heap is compacted whenever dead entries outnumber live ones
///    (above a small floor), so cancellation churn cannot grow memory.
///    The slab never holds more slots than the peak of concurrent events.
///  * Exhaustion throws and never wraps: std::overflow_error once the
///    40-bit push counter runs out (2^40 - 1 pushes), std::length_error
///    beyond 2^24 concurrent events.

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "util/unique_function.hpp"

namespace mafic::sim {

using EventFn = util::UniqueFunction<void()>;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`; returns a handle usable with
  /// cancel(). Handles are unique for the lifetime of the queue. Throws
  /// std::invalid_argument on a NaN time.
  EventId push(SimTime t, EventFn fn);

  /// Lazily cancels a pending event. Returns false (and is harmless) if the
  /// id already executed, was already cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event; empty() must be false.
  SimTime next_time();

  /// Pops the earliest live event. empty() must be false.
  struct Popped {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  /// Drops every pending event. Ids issued before keep failing to cancel.
  void clear();

  /// Heap entries currently held, live or cancelled (tests/diagnostics:
  /// bounded at < 2x live size + the compaction floor).
  std::size_t heap_footprint() const noexcept { return heap_.size(); }
  /// Callable slots allocated (diagnostics: plateaus at the peak of
  /// concurrent events).
  std::size_t slab_size() const noexcept { return slots_.size(); }
  /// Times the queue rebuilt its heap to shed cancelled entries.
  std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Entry {
    SimTime time;
    EventId id;
  };
  static_assert(sizeof(Entry) == 16);

  struct Slot {
    EventFn fn;
    EventId id = kInvalidEvent;  ///< occupant's id; kInvalidEvent when free
  };

  bool live(EventId id) const noexcept {
    return slots_[id & kSlotMask].id == id;
  }
  void release(std::size_t slot);
  void drop_dead_head();
  /// Removes every cancelled entry and re-heapifies. Called when dead
  /// entries exceed half the heap.
  void compact();
  void maybe_compact();

  std::vector<Entry> heap_;  ///< std::*_heap, earliest (time, id) on top
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t compactions_ = 0;
};

}  // namespace mafic::sim
