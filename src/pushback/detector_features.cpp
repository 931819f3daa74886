#include "pushback/detector_features.hpp"

#include <algorithm>

namespace mafic::pushback {

DetectorFeaturePipeline::DetectorFeaturePipeline(Config cfg,
                                                 double fan_in_floor)
    : cfg_(cfg), fan_in_floor_(fan_in_floor) {}

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
    const sketch::ControlSnapshot& snap) {
  ++epochs_;
  if (victims_.size() < snap.victims.size()) {
    victims_.resize(snap.victims.size());
  }

  std::vector<VictimDecision> out;
  out.reserve(snap.victims.size());
  for (std::size_t vi = 0; vi < snap.victims.size(); ++vi) {
    const auto& sample = snap.victims[vi];
    const sim::NodeId router = sample.last_hop_router;
    const bool in_matrix = router < snap.matrix.d.size();
    auto& st = victims_[vi];

    VictimDecision dec;
    dec.victim = sample.victim;
    dec.router = router;

    FeatureVector& f = dec.features;
    f.d = in_matrix ? snap.matrix.d_count(router) : 0.0;
    // Victims behind one router share its rule state: step it once.
    RouterState& rs = router_state(router);
    if (rs.stepped_epoch != epochs_) {
      rs.stepped_epoch = epochs_;
      step_rule(rs, f.d);
    }
    f.baseline = rs.baseline.value();
    f.velocity = st.have_prev_d ? f.d - st.prev_d : 0.0;
    st.prev_d = f.d;
    st.have_prev_d = true;

    if (in_matrix) {
      for (sim::NodeId i = 0;
           i < static_cast<sim::NodeId>(snap.matrix.s.size()); ++i) {
        if (snap.matrix.a(i, router) >= fan_in_floor_) f.fan_in += 1.0;
      }
    }

    const double decided = static_cast<double>(sample.decided_nice) +
                           static_cast<double>(sample.decided_malicious);
    f.malicious_share =
        decided > 0.0
            ? static_cast<double>(sample.decided_malicious) / decided
            : 0.0;
    f.population_shift =
        st.have_prev_share ? f.malicious_share - st.prev_share : 0.0;
    st.prev_share = f.malicious_share;
    st.have_prev_share = true;

    dec.raised = rs.alarming && !st.alarming;
    dec.cleared = !rs.alarming && st.alarming;
    dec.alarming = rs.alarming;
    st.alarming = rs.alarming;

    out.push_back(dec);
  }
  return out;
}

}  // namespace mafic::pushback
