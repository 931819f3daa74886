#pragma once

/// \file coordinator.hpp
/// The per-victim pushback response registry. Defense actuators register
/// under the router they sit at; each victim's response engages a set of
/// Attack-Transit Routers (ATRs) and later disengages them. Both trigger
/// modes notify through here: the scripted notification engages every
/// protected victim at once, and the control plane engages and
/// disengages victims at its apply events. The "Pushback Continue?"
/// keep-alive is the sender's job (ControlPlane); the registry only
/// delivers it to the actuators at a router.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/actuator.hpp"
#include "sim/simulator.hpp"

namespace mafic::pushback {

class PushbackCoordinator {
 public:
  using TriggerCallback = std::function<void(double time)>;

  /// One victim's response.
  struct VictimResponse {
    bool engaged = false;
    double trigger_time = -1.0;  ///< first engagement (never reset)
    double clear_time = -1.0;    ///< last disengagement
    std::uint64_t engagements = 0;  ///< disengage->engage transitions
    std::vector<sim::NodeId> atrs;  ///< currently engaged ATRs, sorted
  };

  explicit PushbackCoordinator(sim::Simulator* sim) : sim_(sim) {}

  PushbackCoordinator(const PushbackCoordinator&) = delete;
  PushbackCoordinator& operator=(const PushbackCoordinator&) = delete;

  /// Registers a defense actuator living at `router` (e.g. a MaficFilter
  /// on one of its ingress links). Multiple actuators per router are fine.
  void register_actuator(sim::NodeId router, core::DefenseActuator* a);

  /// Routers with at least one registered actuator, ascending.
  std::vector<sim::NodeId> actuator_routers() const;

  /// First-engagement notification (used by the ledger to set the
  /// trigger time).
  void set_trigger_callback(TriggerCallback cb) {
    on_trigger_ = std::move(cb);
  }

  bool triggered() const noexcept { return triggered_; }
  double trigger_time() const noexcept { return trigger_time_; }

  /// Engages or extends one victim's response at `routers`, immediately
  /// (any signaling delay has already elapsed). Every router new to this
  /// response has its actuators activated with the union of victims
  /// every engaged response wants there (activation is additive, so an
  /// actuator already defending another victim just gains this one).
  /// No-op when `routers` is empty; already-engaged routers are skipped.
  /// Fires the trigger callback on the first engagement overall.
  void engage_victim(util::Addr victim,
                     const std::vector<sim::NodeId>& routers);

  /// Tears down one victim's response. Routers no other engaged victim
  /// wants are deactivated; shared ones are RETARGETED (engines cannot
  /// shrink their victim set without a flush, so they are flushed and
  /// re-activated with the remaining union).
  void disengage_victim(util::Addr victim);

  /// Delivers one "Pushback Continue?" keep-alive to every actuator at
  /// `router`.
  void refresh(sim::NodeId router);

  /// Per-victim responses, keyed (and iterated) in address order.
  const std::map<util::Addr, VictimResponse>& responses() const noexcept {
    return responses_;
  }

  /// Sorted, deduplicated union of all engaged responses' ATRs.
  std::vector<sim::NodeId> engaged_atrs() const;

  /// Shared-router flush+re-activate cycles performed by disengage.
  std::uint64_t retargets() const noexcept { return retargets_; }

 private:
  /// Union of victim addresses every *engaged* response wants defended
  /// at `router` (address-ordered map walk: deterministic).
  core::VictimSet victims_for_router(sim::NodeId router) const;

  sim::Simulator* sim_;
  /// Ordered by router id: control-plane only (registration + activation
  /// lookups), and any walk over all actuators is deterministic.
  std::map<sim::NodeId, std::vector<core::DefenseActuator*>> actuators_;
  std::map<util::Addr, VictimResponse> responses_;
  std::uint64_t retargets_ = 0;

  bool triggered_ = false;
  double trigger_time_ = 0.0;
  TriggerCallback on_trigger_;
};

}  // namespace mafic::pushback
