#pragma once

/// \file aggregate_limiter.hpp
/// Second comparator: an aggregate rate limiter in the spirit of classic
/// pushback (Ioannidis & Bellovin, the paper's reference [8]). All
/// victim-bound traffic at the ATR shares one token bucket; excess is
/// dropped regardless of which flow it belongs to.

#include <algorithm>
#include <cstdint>

#include "core/actuator.hpp"
#include "sim/connector.hpp"
#include "sim/simulator.hpp"

namespace mafic::baseline {

class AggregateLimiter final : public sim::InlineFilter,
                               public core::DefenseActuator {
 public:
  struct Config {
    double limit_bps = 1e6;     ///< allowed aggregate toward the victim
    double burst_bytes = 4000;  ///< token bucket depth
  };

  struct Stats {
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t forwarded = 0;
  };

  AggregateLimiter(sim::Simulator* sim, Config cfg)
      : sim_(sim), cfg_(cfg), tokens_(cfg.burst_bytes) {}

  // --- DefenseActuator ---
  void activate(const core::VictimSet& victims) override {
    for (const auto v : victims) victims_.insert(v);
    active_ = true;
    tokens_ = cfg_.burst_bytes;
    last_refill_ = sim_->now();
  }
  void refresh() override {}
  void deactivate() override {
    active_ = false;
    victims_.clear();
  }
  bool active() const noexcept override { return active_; }

  using OfferedCallback = std::function<void(const sim::Packet&)>;
  void set_offered_callback(OfferedCallback cb) {
    on_offered_ = std::move(cb);
  }

  const Config& config() const noexcept { return cfg_; }
  const Stats& stats() const noexcept { return stats_; }

 protected:
  Decision inspect(sim::Packet& p) override {
    if (!active_ || !victims_.contains(p.label.dst)) {
      return Decision::forward();
    }
    ++stats_.offered;
    if (on_offered_) on_offered_(p);
    refill();
    const double need = static_cast<double>(p.size_bytes);
    if (tokens_ >= need) {
      tokens_ -= need;
      ++stats_.forwarded;
      return Decision::forward();
    }
    ++stats_.dropped;
    return Decision::drop(sim::DropReason::kDefenseBaseline);
  }

 private:
  void refill() {
    const double now = sim_->now();
    tokens_ = std::min(cfg_.burst_bytes,
                       tokens_ + (now - last_refill_) * cfg_.limit_bps / 8.0);
    last_refill_ = now;
  }

  sim::Simulator* sim_;
  Config cfg_;
  double tokens_;
  double last_refill_ = 0.0;
  bool active_ = false;
  core::VictimSet victims_;
  OfferedCallback on_offered_;
  Stats stats_;
};

}  // namespace mafic::baseline
