#pragma once

/// \file detector_features.hpp
/// Per-victim alarm decision for the asynchronous control plane. Each
/// epoch the pipeline reads the traffic matrix the TrafficMonitor froze
/// and, for every protected destination, emits its FeatureVector (|Dj|
/// and the EWMA baseline) plus the alarm transition for that victim.
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
///
/// Everything here is a pure function of the snapshot plus the
/// pipeline's own state: no live datapath access.

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/traffic_matrix.hpp"
#include "util/ip.hpp"
#include "util/stats.hpp"

namespace mafic::pushback {

/// A protected destination and the last-hop router it sits behind.
struct ProtectedVictim {
  util::Addr victim = util::kInvalidAddr;
  sim::NodeId router = sim::kInvalidNode;
};

/// One epoch's observations for one protected destination.
struct FeatureVector {
  double d = 0.0;         ///< |Dj| estimate at the victim's last-hop router
  double baseline = 0.0;  ///< EWMA baseline after this epoch's rule step
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

  explicit DetectorFeaturePipeline(Config cfg) : cfg_(cfg) {}

  /// Consumes one epoch's matrix: steps the |Dj| rule once per protected
  /// last-hop router, then emits the decision for each victim, in
  /// `victims` order (the same list, in the same order, every epoch).
  /// Deterministic: same snapshot sequence, same decisions.
  std::vector<VictimDecision> step(const sketch::TrafficMatrixSnapshot& matrix,
                                   std::span<const ProtectedVictim> victims);

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

  /// The router's rule state, created on first use.
  RouterState& router_state(sim::NodeId router);
  /// One epoch of the |Dj| rule for one router.
  void step_rule(RouterState& rs, double d) const;

  Config cfg_;
  std::vector<RouterState> routers_;  ///< in first-protected order
  /// Each victim's alarm state after the last epoch, in `victims` order.
  std::vector<bool> victim_alarming_;
  std::uint64_t epochs_ = 0;
};

}  // namespace mafic::pushback
