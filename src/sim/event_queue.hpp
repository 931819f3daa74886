#pragma once

/// \file event_queue.hpp
/// Event queue for exact-time, one-shot events, in two kinds:
///
///  * **Closures**: a min-heap of 16-byte POD `{time, id}` entries over a
///    slab of callables recycled through a free list, so a sift step moves
///    two words and never a callable. Closures can be cancelled.
///  * **Hand-offs**: 32-byte POD records `{time, id, to, packet}`, "give
///    `packet` to `to` at `time`", queued in FIFO **lanes**, one per
///    distinct delay value (keyed by its exact bit pattern). A link hop is
///    two hand-offs (transmit-complete, then delivery), so it needs no
///    closure and no slot in the closure heap. Hand-offs cannot be
///    cancelled, and a pending hand-off owns its packet: clear() and the
///    destructor destroy it.
///
/// Ordering. Every event gets its id from one push counter `seq`
/// (starting at 1): `id = (seq << 24) | low`, where `low` is the slot of a
/// closure or the lane of a hand-off. Ordering by `(time, id)` is therefore
/// ordering by `(time, push order)`, and equal times fire in schedule order
/// across both kinds. A hand-off's time is `now + delay` (`now` when
/// delay <= 0), and `now` never decreases, so each lane is sorted by
/// `(time, id)` as pushed. A small heap of the non-empty lanes, keyed by
/// their heads, merged with the closure heap's top, pops every event in
/// exactly the `(time, id)` order one heap of everything would.
///
///  * Ids are unique and strictly increasing for the lifetime of the
///    queue, across clear() too. A closure is live exactly when its slot
///    still holds its id, so a liveness check is one compare; no slot ever
///    holds a hand-off's id, so cancelling one returns false.
///  * Cancellation frees the slot at once and leaves the heap entry behind;
///    it is skipped when it surfaces, and the heap is compacted whenever
///    dead entries outnumber live ones (above a small floor), so
///    cancellation churn cannot grow memory. The slab never holds more
///    slots than the peak of concurrent closures; a lane's ring keeps the
///    capacity of its peak backlog until clear().
///  * Exhaustion throws and never wraps: std::overflow_error once the
///    40-bit push counter runs out (2^40 - 1 pushes), std::length_error
///    beyond 2^24 concurrent closures or 2^24 lanes.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/unique_function.hpp"

namespace mafic::sim {

class Connector;

using EventFn = util::UniqueFunction<void()>;

/// A hand-off lane of an EventQueue (see EventQueue::lane).
using LaneId = std::uint32_t;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Destroys the packets of pending hand-offs.
  ~EventQueue();

  /// Schedules `fn` at absolute time `t`; returns a handle usable with
  /// cancel(). Handles are unique for the lifetime of the queue. Throws
  /// std::invalid_argument on a NaN time.
  EventId push(SimTime t, EventFn fn);

  /// The lane for hand-offs `delay` seconds ahead, created on first use.
  /// One lane per exact delay value (its bit pattern): no rounding. Lane
  /// ids stay valid for the lifetime of the queue, across clear() too.
  /// Throws std::invalid_argument on a NaN delay.
  LaneId lane(SimTime delay);

  /// Queues a hand-off of `p` to `to` on `lane`, at `now + delay` (`now`
  /// when delay <= 0), the time Simulator::schedule gives. `now` must not
  /// be earlier than at any previous push on the lane; the Simulator's
  /// clock never goes back. Returns the hand-off's id, which orders it
  /// with closures; it cannot be cancelled. `to` and `p` must be non-null.
  EventId push_hand_off(LaneId lane, SimTime now, Connector* to, PacketPtr p);

  /// Lazily cancels a pending closure. Returns false (and is harmless) if
  /// the id already executed, was already cancelled, never existed, or
  /// names a hand-off.
  bool cancel(EventId id);

  bool empty() const noexcept { return live_ == 0 && hand_offs_ == 0; }
  /// Pending events of both kinds.
  std::size_t size() const noexcept { return live_ + hand_offs_; }

  /// Time of the earliest live event; empty() must be false.
  SimTime next_time();

  /// Pops the earliest live event. empty() must be false. A closure comes
  /// back in `fn`; a hand-off comes back as `to` (non-null) and `packet`.
  struct Popped {
    SimTime time;
    EventId id;
    EventFn fn;
    Connector* to = nullptr;
    PacketPtr packet;
  };
  Popped pop();

  /// Drops every pending event, destroying the packets of hand-offs. Ids
  /// issued before keep failing to cancel; lanes stay valid.
  void clear();

  /// Heap entries currently held, live or cancelled (tests/diagnostics:
  /// bounded at < 2x live size + the compaction floor).
  std::size_t heap_footprint() const noexcept { return heap_.size(); }
  /// Callable slots allocated (diagnostics: plateaus at the peak of
  /// concurrent events).
  std::size_t slab_size() const noexcept { return slots_.size(); }
  /// Times the queue rebuilt its heap to shed cancelled entries.
  std::uint64_t compactions() const noexcept { return compactions_; }
  /// Lanes created (diagnostics: one per distinct delay value).
  std::size_t lane_count() const noexcept { return lanes_.size(); }

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

  struct HandOff {
    SimTime time;
    EventId id;  ///< low kSlotBits bits: the lane
    Connector* to;
    Packet* packet;  ///< owned while queued
  };
  static_assert(sizeof(HandOff) == 32);

  /// A FIFO ring of hand-offs, sorted by (time, id) as pushed. The ring's
  /// size is its capacity, a power of two (or 0 before the first push).
  struct Lane {
    SimTime delay;
    std::vector<HandOff> ring;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  bool live(EventId id) const noexcept {
    return slots_[id & kSlotMask].id == id;
  }
  /// Throws std::overflow_error once the push counter is spent.
  void check_ids_left() const;
  void release(std::size_t slot);
  void drop_dead_head();
  /// Removes every cancelled entry and re-heapifies. Called when dead
  /// entries exceed half the heap.
  void compact();
  void maybe_compact();

  /// True when the earliest live event is a hand-off; empty() must be
  /// false. Drops cancelled closures off the heap's top.
  bool hand_off_next();
  /// Pops the earliest lane's head and re-keys the lane heap with one
  /// sift-down; lane_heap_size_ must be > 0.
  HandOff pop_hand_off();
  /// Doubles a full lane's ring, keeping its FIFO order.
  void grow(Lane& lane);
  void lane_heap_sift_up(std::size_t i);
  void lane_heap_sift_down(std::size_t i);
  /// Destroys every pending hand-off's packet and empties the lanes.
  void drop_hand_offs();

  std::vector<Entry> heap_;  ///< std::*_heap, earliest (time, id) on top
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;  ///< pending closures

  std::vector<Lane> lanes_;
  std::unordered_map<std::uint64_t, LaneId> lane_of_;  ///< delay bits -> lane
  /// Min-heap of the non-empty lanes' heads, in its first lane_heap_size_
  /// entries; sized to lanes_ when a lane is created.
  std::vector<Entry> lane_heap_;
  std::size_t lane_heap_size_ = 0;
  std::size_t hand_offs_ = 0;  ///< pending hand-offs

  std::uint64_t next_seq_ = 1;
  std::uint64_t compactions_ = 0;
};

}  // namespace mafic::sim
