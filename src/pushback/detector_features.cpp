#include "pushback/detector_features.hpp"

#include <algorithm>

namespace mafic::pushback {

DetectorFeaturePipeline::RouterState& DetectorFeaturePipeline::router_state(
    sim::NodeId router) {
  for (RouterState& rs : routers_) {
    if (rs.router == router) return rs;
  }
  return routers_.emplace_back(router, cfg_.ewma_alpha);
}

void DetectorFeaturePipeline::step_rule(RouterState& rs, double d) const {
  ++rs.epochs_seen;
  if (!rs.baseline.initialized() || rs.epochs_seen <= cfg_.warmup_epochs) {
    rs.baseline.update(d);  // warmup learns every epoch (the first seeds it)
    return;
  }
  // Clear hysteresis honours the same absolute floor the trigger applies:
  // traffic that has subsided BELOW the floor could never re-trigger and
  // must clear — otherwise a flood over a small frozen baseline (e.g.
  // base 30, floor 100) that drops to 50 pkts/epoch keeps the router
  // alarming forever and the baseline never thaws.
  const double clear_below =
      std::max(cfg_.clear_factor * std::max(rs.baseline.value(), 1.0),
               cfg_.min_packets_per_epoch);
  if (rs.alarming) {
    if (d < clear_below) {
      rs.alarming = false;
      rs.baseline.update(d);
    }
    return;  // baseline frozen while alarming
  }
  if (d > std::max(cfg_.min_packets_per_epoch,
                   cfg_.trigger_factor * rs.baseline.value())) {
    rs.alarming = true;
    rs.has_pending = false;  // may be the attack's ramp: never learn it
    return;
  }
  // Not alarming. An epoch under the clear threshold waits for the next
  // one: learned if that one is under it too, dropped otherwise. An epoch
  // over it is never learned.
  const bool calm = d < clear_below;
  if (calm && rs.has_pending) rs.baseline.update(rs.pending);
  rs.pending = d;
  rs.has_pending = calm;
}

std::vector<VictimDecision> DetectorFeaturePipeline::step(
    const sketch::TrafficMatrixSnapshot& matrix,
    std::span<const ProtectedVictim> victims) {
  ++epochs_;
  if (victim_alarming_.size() < victims.size()) {
    victim_alarming_.resize(victims.size(), false);
  }

  std::vector<VictimDecision> out;
  out.reserve(victims.size());
  for (std::size_t vi = 0; vi < victims.size(); ++vi) {
    const sim::NodeId router = victims[vi].router;

    VictimDecision dec;
    dec.victim = victims[vi].victim;
    dec.router = router;
    FeatureVector& f = dec.features;
    f.d = router < matrix.d.size() ? matrix.d_count(router) : 0.0;
    // Victims behind one router share its rule state: step it once.
    RouterState& rs = router_state(router);
    if (rs.stepped_epoch != epochs_) {
      rs.stepped_epoch = epochs_;
      step_rule(rs, f.d);
    }
    f.baseline = rs.baseline.value();

    const bool was_alarming = victim_alarming_[vi];
    dec.raised = rs.alarming && !was_alarming;
    dec.cleared = !rs.alarming && was_alarming;
    dec.alarming = rs.alarming;
    victim_alarming_[vi] = rs.alarming;

    out.push_back(dec);
  }
  return out;
}

}  // namespace mafic::pushback
