#pragma once

/// \file control_plane.hpp
/// The asynchronous control-plane detector: multi-victim detection that
/// runs off the classify path.
///
/// Shape (mirrors the SDN-controller split of the related repos — a
/// detection loop polling frozen stats, actuation through a registry):
///
///   1. SNAPSHOT — at every TrafficMonitor epoch (an epoch-aligned sim
///      event on the sim thread) the plane freezes a ControlSnapshot:
///      a by-value copy of the traffic matrix plus per-victim counter
///      samples pulled through an opaque CounterSource callback. No
///      datapath structure is referenced after this point.
///   2. DETECT — the DetectorFeaturePipeline consumes the snapshot:
///      the abnormal-|Dj| rule per protected last-hop router, feature
///      extraction (velocity, fan-in, population shift), and ATR
///      identification for every alarming victim. The step is a pure
///      function of the snapshot plus the pipeline's own state.
///   3. APPLY — pending per-victim actions are applied at ONE scheduled
///      event a fixed control delay later, through the coordinator's
///      engage_victim / disengage_victim registry.
///   4. KEEP-ALIVE — from the first engaging apply event on, the plane
///      sends one "Pushback Continue?" refresh per engaged ATR every
///      refresh_interval (paper Fig. 2). It is the only sender, so the
///      loop lives here; the registry only says which ATRs are engaged.
///
/// Determinism contract: snapshot points are epoch events, the apply
/// event fires at epoch_end + control_delay (before the next epoch: the
/// Experiment rejects control_delay >= epoch_seconds), and detection
/// never reads live state — so detector-mode runs are bit-identical
/// across the scalar and sharded strategies (the scenario-catalog
/// equivalence battery pins it).
///
/// This file is control-plane code: the maficlint `seams` rule checks
/// it never names FlowTables or the verdict pipeline — engines are
/// reached only through DefenseActuator (via the coordinator) and the
/// CounterSource seam.

#include <cstdint>
#include <functional>
#include <vector>

#include "pushback/atr_identifier.hpp"
#include "pushback/coordinator.hpp"
#include "pushback/detector_features.hpp"
#include "sketch/control_snapshot.hpp"
#include "sketch/traffic_matrix.hpp"
#include "sim/simulator.hpp"

namespace mafic::pushback {

class ControlPlane {
 public:
  /// Every settable pushback value: ExperimentConfig::pushback.
  struct Config {
    double control_delay = 0.01;     ///< detect -> apply signaling delay
    double refresh_interval = 0.25;  ///< keep-alive period
    bool latch = true;  ///< keep responses engaged after the alarm clears
    AtrConfig atr{};
    DetectorFeaturePipeline::Config detector{};
  };

  /// What detection knows about one protected destination. Whether it is
  /// engaged, since when and at which ATRs lives in the coordinator's
  /// responses().
  struct VictimStatus {
    util::Addr victim = util::kInvalidAddr;
    sim::NodeId router = sim::kInvalidNode;  ///< last-hop router
    bool alarming = false;  ///< detector state after the latest epoch
    std::uint64_t alarms = 0;    ///< raise transitions observed
    FeatureVector features{};    ///< latest epoch's feature vector
  };

  /// Fills the counter fields of pre-sized samples (victim + router are
  /// already set, in protect() order). The experiment wires this to its
  /// engine aggregation; the plane itself never sees those types.
  using CounterSource =
      std::function<void(std::vector<sketch::VictimCounterSample>&)>;

  ControlPlane(sim::Simulator* sim, PushbackCoordinator* coordinator,
               Config cfg);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Declares a protected destination. Call once per victim, primary
  /// first — statuses() and counter samples keep this order.
  void protect(sim::NodeId victim_router, util::Addr victim_addr);

  /// Subscribes the plane's epoch handler to the traffic monitor.
  void watch(sketch::TrafficMonitor& monitor);

  /// Feeds one epoch snapshot directly (what watch() subscribes). Must
  /// be called from the sim thread at an epoch-aligned event; schedules
  /// the apply event itself.
  void ingest(const sketch::TrafficMatrixSnapshot& snap);

  void set_counter_source(CounterSource src) {
    counter_source_ = std::move(src);
  }

  const std::vector<VictimStatus>& statuses() const noexcept {
    return statuses_;
  }

  std::uint64_t epochs_observed() const noexcept { return epochs_; }
  std::uint64_t apply_events() const noexcept { return apply_events_; }
  const Config& config() const noexcept { return cfg_; }

 private:
  /// One victim's pending transition, decided at the epoch event and
  /// executed at the apply event.
  struct Action {
    std::size_t index = 0;  ///< into statuses_
    bool engage = false;    ///< otherwise disengage
    std::vector<sim::NodeId> atrs;  ///< newly-identified ATRs to engage
  };

  void apply(const std::vector<Action>& actions);
  void refresh_tick();

  sim::Simulator* sim_;
  PushbackCoordinator* coordinator_;
  Config cfg_;
  DetectorFeaturePipeline pipeline_;
  CounterSource counter_source_;
  std::vector<VictimStatus> statuses_;
  std::uint64_t epochs_ = 0;
  std::uint64_t apply_events_ = 0;
  sim::EventId keepalive_event_ = sim::kInvalidEvent;
};

}  // namespace mafic::pushback
