#pragma once

/// \file standalone_runtime.hpp
/// Seam implementations for running a FilterEngine *outside* the
/// discrete-event simulator: a manually-advanced clock, a TimerService
/// backed by a private hierarchical TimerWheel, and a counting ProbeSink.
/// One EngineRuntime bundles the three with an engine — this is the unit a
/// datapath shard owns (sharded_filter.hpp) and what engine unit tests
/// drive directly.
///
/// Threading contract: an EngineRuntime is single-threaded. The shard's
/// driver thread interleaves inspect()/inspect_batch() calls with
/// advance_until(), which fires due probation timers and moves the clock
/// forward. Nothing here takes a lock; isolation across shards comes from
/// partitioning flows, not from synchronization.

#include <cstdint>
#include <utility>

#include "core/address_policy.hpp"
#include "core/config.hpp"
#include "core/engine_seams.hpp"
#include "core/filter_engine.hpp"
#include "sim/timer_wheel.hpp"

namespace mafic::core {

/// A clock that only moves when told to. Never goes backwards.
class ManualClock final : public Clock {
 public:
  double now() const noexcept override { return now_; }
  void set(double t) noexcept {
    if (t > now_) now_ = t;
  }

 private:
  double now_ = 0.0;
};

/// TimerService over a private hierarchical wheel, driven by the owner
/// calling advance_until(). Matches the simulator's timer semantics
/// (fire at the first tick boundary >= nominal time, past times clamp to
/// now), so an engine behaves identically under either runtime.
class WheelTimerService final : public TimerService {
 public:
  explicit WheelTimerService(ManualClock* clock) : clock_(clock) {}

  sim::TimerId schedule_at(double t, TimerFn fn) override {
    const double now = clock_->now();
    return wheel_.schedule_at(t < now ? now : t, std::move(fn));
  }
  bool cancel(sim::TimerId id) override { return wheel_.cancel(id); }
  bool reschedule(sim::TimerId id, double t) override {
    const double now = clock_->now();
    return wheel_.reschedule(id, t < now ? now : t);
  }

  /// Fires every timer due at or before `t` (in wheel order), then
  /// advances the clock to `t`. Returns the number of timers fired.
  std::size_t advance_until(double t) {
    std::size_t fired = 0;
    while (!wheel_.empty() && wheel_.next_time() <= t) {
      sim::TimerWheel::Popped p = wheel_.pop();
      clock_->set(p.time);
      p.fn();
      ++fired;
    }
    clock_->set(t);
    return fired;
  }

  const sim::TimerWheel& wheel() const noexcept { return wheel_; }

 private:
  ManualClock* clock_;
  sim::TimerWheel wheel_;
};

/// ProbeSink that only counts. Standalone shards have no wire to put a
/// duplicate-ACK on; benches and property tests assert on the counter.
class CountingProbeSink final : public ProbeSink {
 public:
  void send_probe(const sim::FlowLabel&) override { ++count_; }
  std::uint64_t probes_sent() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// One self-contained engine shard: clock + wheel + probe counter + the
/// engine wired to them. Movable-nowhere by design (the engine keeps raw
/// seam pointers); heap-allocate and keep put.
class EngineRuntime {
 public:
  EngineRuntime(const MaficConfig& cfg, const AddressPolicy* policy)
      : timers_(&clock_),
        engine_(cfg, &clock_, &timers_, &probes_, policy) {}

  EngineRuntime(const EngineRuntime&) = delete;
  EngineRuntime& operator=(const EngineRuntime&) = delete;

  FilterEngine& engine() noexcept { return engine_; }
  const FilterEngine& engine() const noexcept { return engine_; }
  ManualClock& clock() noexcept { return clock_; }
  CountingProbeSink& probes() noexcept { return probes_; }

  /// Fires due probation timers and advances this shard's clock to `t`.
  std::size_t advance_until(double t) { return timers_.advance_until(t); }

 private:
  ManualClock clock_;
  WheelTimerService timers_;
  CountingProbeSink probes_;
  FilterEngine engine_;
};

}  // namespace mafic::core
