#pragma once

/// \file mafic_filter.hpp
/// The MAFIC datapath element inside the discrete-event simulator: an
/// adapter at the head of an ingress SimplexLink of an Attack-Transit
/// Router — before the link queue, where the paper's ATR drops (sections
/// III–IV) — that feeds packets to one simulator-agnostic FilterEngine
/// (filter_engine.hpp).
///
/// The adapter contributes exactly the simulator bindings:
///   * Clock        -> Simulator::now()
///   * TimerService -> Simulator::schedule_timer_at / cancel / reschedule
///                     (the simulator's hierarchical wheel)
///   * ProbeSink    -> Prober, which crafts duplicate-ACK packets and
///                     sends them out of the ATR node
/// plus the InlineFilter verdict mapping and the DefenseActuator control
/// surface the pushback coordinator drives. Stats, per-victim tallies,
/// quota weights and callbacks live on engine().

#include "core/actuator.hpp"
#include "core/address_policy.hpp"
#include "core/config.hpp"
#include "core/filter_engine.hpp"
#include "core/prober.hpp"
#include "core/sim_seams.hpp"
#include "sim/connector.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {

class MaficFilter final : public sim::InlineFilter, public DefenseActuator {
 public:
  MaficFilter(sim::Simulator* sim, sim::PacketFactory* factory,
              sim::Node* atr_node, MaficConfig cfg,
              const AddressPolicy* policy);

  // --- DefenseActuator ---
  void activate(const VictimSet& victims) override {
    engine_.activate(victims);
  }
  void refresh() override { engine_.refresh(); }
  void deactivate() override { engine_.deactivate(); }
  bool active() const noexcept override { return engine_.active(); }

  FilterEngine& engine() noexcept { return engine_; }
  const FilterEngine& engine() const noexcept { return engine_; }
  const Prober& prober() const noexcept { return prober_; }

 protected:
  Decision inspect(sim::Packet& p) override;

 private:
  SimClock clock_;
  SimTimerService timers_;
  Prober prober_;
  FilterEngine engine_;
};

}  // namespace mafic::core
