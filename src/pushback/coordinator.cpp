#include "pushback/coordinator.hpp"

#include <algorithm>

namespace mafic::pushback {

void PushbackCoordinator::register_actuator(sim::NodeId router,
                                            core::DefenseActuator* a) {
  actuators_[router].push_back(a);
}

std::vector<sim::NodeId> PushbackCoordinator::actuator_routers() const {
  std::vector<sim::NodeId> out;
  out.reserve(actuators_.size());
  for (const auto& [router, list] : actuators_) out.push_back(router);
  return out;
}

core::VictimSet PushbackCoordinator::victims_for_router(
    sim::NodeId router) const {
  core::VictimSet set;
  for (const auto& [victim, resp] : responses_) {
    if (!resp.engaged) continue;
    if (std::binary_search(resp.atrs.begin(), resp.atrs.end(), router)) {
      set.insert(victim);
    }
  }
  return set;
}

void PushbackCoordinator::engage_victim(
    util::Addr victim, const std::vector<sim::NodeId>& routers) {
  if (routers.empty()) return;
  auto& resp = responses_[victim];

  if (!resp.engaged) {
    resp.engaged = true;
    ++resp.engagements;
    if (resp.trigger_time < 0.0) resp.trigger_time = sim_->now();
  }

  std::vector<sim::NodeId> fresh;
  for (const sim::NodeId router : routers) {
    const auto it =
        std::lower_bound(resp.atrs.begin(), resp.atrs.end(), router);
    if (it != resp.atrs.end() && *it == router) continue;
    resp.atrs.insert(it, router);
    fresh.push_back(router);
  }

  for (const sim::NodeId router : fresh) {
    const auto it = actuators_.find(router);
    if (it == actuators_.end()) continue;
    const core::VictimSet set = victims_for_router(router);
    for (core::DefenseActuator* a : it->second) a->activate(set);
  }

  if (!triggered_) {
    triggered_ = true;
    trigger_time_ = sim_->now();
    if (on_trigger_) on_trigger_(trigger_time_);
  }
}

void PushbackCoordinator::disengage_victim(util::Addr victim) {
  const auto rit = responses_.find(victim);
  if (rit == responses_.end() || !rit->second.engaged) return;
  auto& resp = rit->second;
  resp.engaged = false;
  resp.clear_time = sim_->now();
  const std::vector<sim::NodeId> routers = std::move(resp.atrs);
  resp.atrs.clear();

  for (const sim::NodeId router : routers) {
    const auto it = actuators_.find(router);
    if (it == actuators_.end()) continue;
    const core::VictimSet remaining = victims_for_router(router);
    if (remaining.empty()) {
      for (core::DefenseActuator* a : it->second) a->deactivate();
    } else {
      // Shared router: other victims still need it. Engines only grow
      // their victim set while active, so shrinking is a flush +
      // re-activate with the remaining union.
      for (core::DefenseActuator* a : it->second) {
        a->deactivate();
        a->activate(remaining);
      }
      ++retargets_;
    }
  }
}

void PushbackCoordinator::refresh(sim::NodeId router) {
  const auto it = actuators_.find(router);
  if (it == actuators_.end()) return;
  for (core::DefenseActuator* a : it->second) a->refresh();
}

std::vector<sim::NodeId> PushbackCoordinator::engaged_atrs() const {
  std::vector<sim::NodeId> out;
  for (const auto& [victim, resp] : responses_) {
    if (!resp.engaged) continue;
    out.insert(out.end(), resp.atrs.begin(), resp.atrs.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace mafic::pushback
