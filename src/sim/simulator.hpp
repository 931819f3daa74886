#pragma once

/// \file simulator.hpp
/// The discrete-event simulation kernel. Components hold a Simulator* and
/// schedule work with schedule()/schedule_at(); nothing in the library uses
/// global state, so independent simulations can coexist in one process.
///
/// Two event sources drive the clock:
///  * the EventQueue — exact-time, one-shot events of two kinds:
///    closures (agent timers, RTOs, attack ticks, the control plane,
///    experiment scripting), which can be cancelled, and packet hand-offs,
///    "give this packet to that connector after this lane's delay", which
///    a link uses for both events of a hop. Equal times fire in schedule
///    order across both kinds;
///  * the hierarchical TimerWheel — high-churn per-flow timers (probation
///    probes/decisions, keep-alives) with O(1) schedule/cancel/reschedule,
///    quantized to the wheel resolution.
/// The run loop interleaves both in time order; at equal times, queue
/// events fire before wheel timers (deterministic regardless of internals).

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/types.hpp"

namespace mafic::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` after `delay` seconds (clamped to now for negatives).
  /// A NaN delay throws std::invalid_argument.
  EventId schedule(SimTime delay, EventFn fn) {
    return schedule_at(delay <= 0 ? now_ : now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  /// A NaN time throws std::invalid_argument.
  EventId schedule_at(SimTime t, EventFn fn) {
    return queue_.push(t < now_ ? now_ : t, std::move(fn));
  }

  /// Cancels a pending event; safe to call with stale ids.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// The hand-off lane for `delay` seconds (EventQueue::lane): resolve it
  /// once per fixed delay, not per packet. A NaN delay throws
  /// std::invalid_argument.
  LaneId lane(SimTime delay) { return queue_.lane(delay); }

  /// Gives `p` to `to` (`to->recv(p)`) after `lane`'s delay, at the time
  /// schedule() would give an event with that delay. Cannot be cancelled.
  EventId hand_off(LaneId lane, Connector* to, PacketPtr p) {
    return queue_.push_hand_off(lane, now_, to, std::move(p));
  }

  /// Schedules `fn` on the timer wheel after `delay` seconds. Fires at the
  /// first tick boundary at or after the nominal time. Prefer this over
  /// schedule() for per-flow timers that are frequently cancelled or
  /// rescheduled — all three operations are O(1) on the wheel. A time
  /// with no tick count (NaN, +inf, or huge) throws std::invalid_argument.
  TimerId schedule_timer(SimTime delay, TimerFn fn) {
    return wheel_.schedule_at(delay <= 0 ? now_ : now_ + delay,
                              std::move(fn));
  }

  /// Schedules `fn` on the timer wheel at absolute time `t`.
  TimerId schedule_timer_at(SimTime t, TimerFn fn) {
    return wheel_.schedule_at(t < now_ ? now_ : t, std::move(fn));
  }

  /// Cancels a pending wheel timer; safe to call with stale ids.
  bool cancel_timer(TimerId id) { return wheel_.cancel(id); }

  /// Moves a pending wheel timer to absolute time `t`, keeping its id.
  /// Returns false when the id is stale (fire a fresh schedule_timer_at).
  bool reschedule_timer(TimerId id, SimTime t) {
    return wheel_.reschedule(id, t < now_ ? now_ : t);
  }

  /// Runs until both event sources drain or stop() is called. Returns the
  /// number of events processed.
  std::size_t run();

  /// Processes every event with time <= t, then advances the clock to t.
  std::size_t run_until(SimTime t);

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  bool pending() const noexcept {
    return !queue_.empty() || !wheel_.empty();
  }
  std::size_t pending_count() const noexcept {
    return queue_.size() + wheel_.size();
  }
  std::uint64_t events_processed() const noexcept { return processed_; }

  const TimerWheel& timer_wheel() const noexcept { return wheel_; }

 private:
  /// Time of the next event across both sources; pending() must be true.
  SimTime next_event_time();
  /// Pops and runs the next event; advances the clock.
  void step();

  EventQueue queue_;
  TimerWheel wheel_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
};

}  // namespace mafic::sim
