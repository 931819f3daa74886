#pragma once

/// \file detector_features.hpp
/// Per-victim alarm decision + feature extraction for the asynchronous
/// control plane. Each epoch the pipeline consumes one frozen
/// ControlSnapshot and, for every protected destination, emits a
/// FeatureVector (|Dj|, EWMA baseline, flow-arrival velocity, ingress
/// fan-in, decision-population shift) plus the alarm transition for that
/// victim.
///
/// The alarm rule is the paper's abnormal-|Dj| test (section II): after a
/// warmup, the victim's last-hop router alarms when its egress
/// cardinality |Dj| exceeds both an absolute floor and a multiple of its
/// EWMA baseline, and clears when |Dj| drops below the clear threshold
/// (which honours the same floor). Warmup epochs are all learned. After
/// warmup the EWMA baseline learns only calm epochs — under the clear
/// threshold — and a calm epoch only once the next epoch is calm too.
/// So the attack does not poison it: the baseline freezes while the
/// router alarms, skips every epoch of a ramp or sub-trigger plateau that
/// sits over the clear threshold, and drops the calm epoch just before
/// one (zombies starting staggered lift |Dj| over several epochs, each
/// under the trigger). A ramp slow enough that every epoch stays under
/// the clear threshold is still learned as growth. EWMA state is kept
/// only for protected last-hop routers — victims behind the same router
/// share it — and starts at the first epoch that router is protected.
/// The other features ship in the vector for reporting; they never raise
/// an alarm.
///
/// Everything here is a pure function of the snapshot plus the
/// pipeline's own state: no live datapath access.

#include <cstdint>
#include <vector>

#include "sketch/control_snapshot.hpp"
#include "util/stats.hpp"

namespace mafic::pushback {

/// One epoch's observations for one protected destination.
struct FeatureVector {
  double d = 0.0;         ///< |Dj| estimate at the victim's last-hop router
  double baseline = 0.0;  ///< EWMA baseline after this epoch's rule step
  /// Change in |Dj| versus the previous epoch (first epoch: 0). The
  /// "flow-arrival velocity" proxy: distinct-packet growth per epoch.
  double velocity = 0.0;
  /// Number of ingress routers whose a_ij meets the fan-in floor — how
  /// widely distributed the traffic converging on this victim is.
  double fan_in = 0.0;
  /// Cumulative malicious share of decided flows for this victim,
  /// decided_malicious / (decided_nice + decided_malicious); 0 until the
  /// filters have decided anything (i.e. before activation).
  double malicious_share = 0.0;
  /// Change in malicious_share versus the previous epoch. Only
  /// meaningful once a response is active and flows are being decided.
  double population_shift = 0.0;
};

/// Alarm transition for one victim after one epoch.
struct VictimDecision {
  util::Addr victim = util::kInvalidAddr;
  sim::NodeId router = sim::kInvalidNode;
  bool raised = false;   ///< entered the alarming state this epoch
  bool cleared = false;  ///< left the alarming state this epoch
  bool alarming = false; ///< state after this epoch
  FeatureVector features{};
};

class DetectorFeaturePipeline {
 public:
  /// The abnormal-|Dj| rule.
  struct Config {
    int warmup_epochs = 3;       ///< epochs before detection may fire
    double trigger_factor = 2.5; ///< alarm when d > factor * baseline
    double clear_factor = 1.5;   ///< clear when d < factor * baseline
    double min_packets_per_epoch = 100.0;  ///< absolute floor for alarms
    double ewma_alpha = 0.3;
  };

  /// `fan_in_floor` is the a_ij an ingress router needs to count into
  /// FeatureVector::fan_in (the control plane passes its ATR
  /// min_intersection).
  DetectorFeaturePipeline(Config cfg, double fan_in_floor);

  /// Consumes one epoch snapshot: steps the |Dj| rule once per protected
  /// last-hop router, then extracts features and the decision for each
  /// victim, in snapshot victim order. Deterministic: same snapshot
  /// sequence, same decisions.
  std::vector<VictimDecision> step(const sketch::ControlSnapshot& snap);

  std::uint64_t epochs_processed() const noexcept { return epochs_; }
  const Config& config() const noexcept { return cfg_; }

 private:
  struct RouterState {
    /// No default constructor on purpose: every state must be built from
    /// the configured alpha.
    RouterState(sim::NodeId r, double ewma_alpha)
        : router(r), baseline(ewma_alpha) {}

    sim::NodeId router;
    util::Ewma baseline;
    int epochs_seen = 0;
    bool alarming = false;
    /// The last calm epoch's |Dj|, learned once the next epoch is calm
    /// too, dropped otherwise.
    double pending = 0.0;
    bool has_pending = false;
    std::uint64_t stepped_epoch = 0;  ///< last epoch the rule ran
  };

  struct VictimState {
    double prev_d = 0.0;
    bool have_prev_d = false;
    double prev_share = 0.0;
    bool have_prev_share = false;
    bool alarming = false;  ///< state after the last epoch
  };

  /// The router's rule state, created on first use.
  RouterState& router_state(sim::NodeId router);
  /// One epoch of the |Dj| rule for one router.
  void step_rule(RouterState& rs, double d) const;

  Config cfg_;
  double fan_in_floor_;
  std::vector<RouterState> routers_;  ///< in first-protected order
  std::vector<VictimState> victims_;
  std::uint64_t epochs_ = 0;
};

}  // namespace mafic::pushback
