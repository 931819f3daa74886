#pragma once

/// \file timer_wheel.hpp
/// Hierarchical timing wheel for high-churn per-flow timers.
///
/// The MAFIC datapath arms two timers per probation (the duplicate-ACK
/// probe at the window midpoint and the classification decision at the
/// deadline) and cancels them whenever a flow resolves early. On the
/// binary-heap EventQueue that is O(log n) to schedule and leaves a
/// lazily-cancelled corpse in the heap; at a million concurrent
/// probations the heap churn dominates. The wheel makes schedule, cancel
/// and reschedule O(1):
///
///   * Time is quantized into ticks of `resolution` seconds. A timer
///     scheduled for time t fires at the first tick boundary >= t.
///   * Four levels of 256 slots each cover spans of 256, 2^16, 2^24 and
///     2^32 ticks. A timer lands in the level whose span contains its
///     distance from the cursor and cascades toward level 0 as the cursor
///     crosses window boundaries. Each timer cascades at most 3 times.
///   * Slots are intrusive doubly-linked lists over a contiguous node
///     slab recycled through a freelist; with inline-storable callbacks
///     (see util::UniqueFunction) steady-state operation performs no heap
///     allocation.
///   * Per-level occupancy bitmaps make "next armed tick" a handful of
///     countr_zero scans, so an idle wheel costs nothing to poll.
///   * Same-tick timers fire in schedule order (a monotonic sequence
///     number breaks ties), keeping runs deterministic.
///
/// Handles are generation-tagged: cancelling or rescheduling a stale
/// TimerId is detected and harmless, mirroring EventQueue::cancel.

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "util/unique_function.hpp"

namespace mafic::sim {

using TimerFn = util::UniqueFunction<void()>;

/// Tick width of the simulator's timer wheel, which carries the per-flow
/// probe and decision timers: they fire on the first tick boundary at or
/// after their nominal time, and 0.5 ms is well under every probation
/// window the paper sweeps. FlowTables' deadline-bucketed eviction ring
/// buckets by the same tick, so the two agree on which probation is due
/// first.
inline constexpr SimTime kWheelTick = 0.0005;

class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kSlotBits;

  explicit TimerWheel(SimTime resolution = kWheelTick);

  SimTime resolution() const noexcept { return resolution_; }

  /// First tick boundary at or after `t` for a wheel of the given
  /// resolution (with float-fuzz tolerance). Shared with consumers that
  /// bucket by the same quantization, e.g. the flow store's
  /// deadline-bucketed eviction ring.
  static std::uint64_t quantize(SimTime t, SimTime resolution) noexcept;

  /// Schedules `fn` at the first tick boundary at or after absolute time
  /// `t` (clamped to the wheel's current position for past times). Throws
  /// std::invalid_argument when `t` has no tick count in uint64_t (NaN,
  /// +inf, or huge).
  TimerId schedule_at(SimTime t, TimerFn fn);

  /// Cancels a pending timer. Returns false (and is harmless) if the id
  /// already fired, was cancelled, or never existed.
  bool cancel(TimerId id);

  /// Moves a pending timer to a new absolute time, keeping its id.
  /// Returns false if the id is stale (caller should schedule afresh).
  /// The rescheduled timer orders after already-armed same-tick timers.
  /// Rejects the same times as schedule_at().
  bool reschedule(TimerId id, SimTime t);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Fire time of the earliest pending timer; empty() must be false.
  /// Advances the internal cursor (cascading as needed), amortized O(1).
  SimTime next_time();

  /// Pops the earliest pending timer; empty() must be false. Same-tick
  /// timers pop in schedule order.
  struct Popped {
    SimTime time;
    TimerId id;
    TimerFn fn;
  };
  Popped pop();

  void clear();

  /// Nodes currently allocated in the slab (diagnostics: steady state
  /// should plateau at the high-water mark of concurrent timers).
  std::size_t slab_size() const noexcept { return nodes_.size(); }

 private:
  enum : std::uint8_t {
    kInLevel0 = 0,  // kInLevel0 + L = armed in level L's slot list
    kInDue = 4,     // collected into the due buffer, not yet fired
    kDead = 5,      // cancelled or fired; awaiting freelist recycling
    kFree = 6,
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    TimerFn fn;
    std::uint64_t expiry_tick = 0;
    std::uint64_t seq = 0;     ///< same-tick firing order
    std::uint32_t gen = 1;     ///< id generation; bumped when node dies
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t slot = 0;    ///< slot index while armed in a level
    std::uint8_t where = kFree;
  };

  struct DueEntry {
    std::uint32_t idx;
    std::uint64_t seq;  ///< staleness check: must match the node's seq
  };

  /// quantize() for this wheel; throws where quantize() would overflow.
  std::uint64_t tick_for(SimTime t) const;
  SimTime time_of(std::uint64_t tick) const noexcept {
    return static_cast<SimTime>(tick) * resolution_;
  }

  std::uint32_t alloc_node();
  void release_node(std::uint32_t idx) noexcept;
  Node* resolve(TimerId id) noexcept;

  void place(std::uint32_t idx);            ///< put node in a level slot / due
  void unlink(std::uint32_t idx) noexcept;  ///< remove from its slot list
  void cascade(int level, std::uint32_t slot);
  /// Moves the cursor *backwards* to `tick` by re-placing every armed
  /// node. Needed when a peek (next_time) ran the cursor ahead to the
  /// then-earliest timer and a subsequent schedule targets an earlier
  /// tick. O(armed); rare — only on peek/schedule inversions.
  void rewind_to(std::uint64_t tick);
  /// Positions the cursor on the earliest armed tick and fills `due_`.
  /// Precondition: at least one armed (non-due) timer exists.
  void collect_next_tick();
  /// Drops dead/rescheduled entries from the front of `due_`; afterwards
  /// either the head of `due_` is live or `due_` is empty.
  void prime_due() noexcept;

  /// Distance in slots (0..255) from `from` to the next occupied slot of
  /// `level`, searching circularly; -1 when the level is empty.
  int next_occupied_distance(int level, std::uint32_t from) const noexcept;

  SimTime resolution_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t heads_[kLevels][kSlotsPerLevel];
  std::uint64_t occupied_[kLevels][kSlotsPerLevel / 64];
  std::uint64_t cur_tick_ = 0;
  /// Last tick that actually fired (pop), as opposed to merely being
  /// peeked at. The cursor may run ahead of this; it never rewinds
  /// behind it.
  std::uint64_t fired_tick_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;

  std::vector<DueEntry> due_;  ///< the firing tick's nodes, by seq
  std::size_t due_pos_ = 0;
};

}  // namespace mafic::sim
