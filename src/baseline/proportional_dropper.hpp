#pragma once

/// \file proportional_dropper.hpp
/// The baseline MAFIC improves upon (paper section II, closing paragraph):
/// "in [2] we only used a simple proportionate packet dropping approach,
/// i.e., all packets, legitimate or malicious, are dropped with the same
/// probability." Flow-blind Pd dropping on everything bound for the
/// victim.
///
/// The coin is FilterEngine's Pd coin (core/pd_coin.hpp): a stateless hash
/// of (coin_seed, flow-label hash, packet uid), so a packet's fate is
/// independent of inspection order, and an experiment that gives both
/// defenses the same seed hands the same packets the same coins
/// (test_baseline pins the order invariance and a golden drop count at a
/// fixed seed).

#include <cstdint>

#include "core/actuator.hpp"
#include "core/pd_coin.hpp"
#include "sim/connector.hpp"

namespace mafic::baseline {

class ProportionalDropper final : public sim::InlineFilter,
                                  public core::DefenseActuator {
 public:
  struct Stats {
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t forwarded = 0;
  };

  ProportionalDropper(double drop_probability, std::uint64_t coin_seed)
      : pd_(drop_probability), coin_seed_(coin_seed) {}

  // --- DefenseActuator ---
  void activate(const core::VictimSet& victims) override {
    for (const auto v : victims) victims_.insert(v);
    active_ = true;
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

  double drop_probability() const noexcept { return pd_; }
  const Stats& stats() const noexcept { return stats_; }

 protected:
  Decision inspect(sim::Packet& p) override {
    if (!active_ || !victims_.contains(p.label.dst)) {
      return Decision::forward();
    }
    ++stats_.offered;
    if (on_offered_) on_offered_(p);
    if (core::pd_coin(pd_, coin_seed_, sim::hash_label(p.label), p.uid)) {
      ++stats_.dropped;
      return Decision::drop(sim::DropReason::kDefenseBaseline);
    }
    ++stats_.forwarded;
    return Decision::forward();
  }

 private:
  double pd_;
  std::uint64_t coin_seed_;
  bool active_ = false;
  core::VictimSet victims_;
  OfferedCallback on_offered_;
  Stats stats_;
};

}  // namespace mafic::baseline
