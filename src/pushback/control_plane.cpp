#include "pushback/control_plane.hpp"

#include <algorithm>

#include "pushback/atr_identifier.hpp"

namespace mafic::pushback {

ControlPlane::ControlPlane(sim::Simulator* sim,
                           PushbackCoordinator* coordinator, Config cfg)
    : sim_(sim), coordinator_(coordinator), cfg_(cfg),
      pipeline_(cfg.detector) {}

ControlPlane::~ControlPlane() {
  if (keepalive_event_ != sim::kInvalidEvent) sim_->cancel(keepalive_event_);
}

void ControlPlane::protect(sim::NodeId victim_router,
                           util::Addr victim_addr) {
  victims_.push_back({victim_addr, victim_router});
  statuses_.emplace_back();
}

void ControlPlane::watch(sketch::TrafficMonitor& monitor) {
  monitor.subscribe([this](const sketch::TrafficMatrixSnapshot& snap) {
    ingest(snap);
  });
}

void ControlPlane::ingest(const sketch::TrafficMatrixSnapshot& snap) {
  ++epochs_;
  if (victims_.empty()) return;

  // Detection: a pure function of the frozen matrix (plus the
  // pipeline's own state).
  const std::vector<VictimDecision> decisions = pipeline_.step(snap, victims_);
  std::vector<std::vector<AtrScore>> atr_sets(victims_.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (decisions[i].alarming) {
      atr_sets[i] = identify_atrs(snap, decisions[i].router, cfg_.atr);
    }
  }

  // Fold results into the statuses and collect pending transitions.
  // What a victim has engaged so far is read from the registry: every
  // earlier epoch's apply event has landed (control_delay < epoch).
  const auto& responses = coordinator_->responses();
  std::vector<Action> actions;
  for (std::size_t i = 0; i < statuses_.size(); ++i) {
    auto& st = statuses_[i];
    const auto& dec = decisions[i];
    st.alarming = dec.alarming;
    if (dec.raised) ++st.alarms;

    const auto rit = responses.find(dec.victim);
    const bool engaged = rit != responses.end() && rit->second.engaged;
    if (dec.alarming) {
      // Engage any ATRs not yet applied for this victim. Re-evaluated
      // every alarming epoch so late-ramping attack sources are caught.
      Action a;
      a.index = i;
      a.engage = true;
      for (const auto& score : atr_sets[i]) {
        if (!engaged || !std::binary_search(rit->second.atrs.begin(),
                                            rit->second.atrs.end(),
                                            score.router)) {
          a.atrs.push_back(score.router);
        }
      }
      if (!a.atrs.empty()) actions.push_back(std::move(a));
    } else if (dec.cleared && !cfg_.latch && engaged) {
      Action a;
      a.index = i;
      actions.push_back(std::move(a));
    }
  }

  // One apply event per epoch with pending actions, a fixed control
  // delay out — the deterministic stand-in for victim->ATR signaling.
  if (!actions.empty()) {
    sim_->schedule(cfg_.control_delay,
                   [this, acts = std::move(actions)] { apply(acts); });
  }
}

void ControlPlane::apply(const std::vector<Action>& actions) {
  ++apply_events_;
  for (const auto& a : actions) {
    const util::Addr victim = victims_[a.index].victim;
    if (!a.engage) {
      coordinator_->disengage_victim(victim);
      continue;
    }
    coordinator_->engage_victim(victim, a.atrs);
    if (keepalive_event_ == sim::kInvalidEvent) {
      keepalive_event_ =
          sim_->schedule(cfg_.refresh_interval, [this] { refresh_tick(); });
    }
  }
}

void ControlPlane::refresh_tick() {
  // "Engaged" already encodes the keep-alive decision (an unlatched
  // victim is disengaged on clear), so every engaged ATR is refreshed —
  // once per tick, however many victims share it.
  for (const sim::NodeId router : coordinator_->engaged_atrs()) {
    coordinator_->refresh(router);
  }
  keepalive_event_ =
      sim_->schedule(cfg_.refresh_interval, [this] { refresh_tick(); });
}

}  // namespace mafic::pushback
