#pragma once

/// \file control_plane.hpp
/// The asynchronous control-plane detector: multi-victim detection that
/// runs off the classify path.
///
/// Shape (mirrors the SDN-controller split of the related repos — a
/// detection loop polling frozen stats, actuation through a registry):
///
///   1. EPOCH — at every TrafficMonitor epoch (an epoch-aligned sim
///      event) the plane receives the traffic matrix the monitor froze
///      for that epoch, by const reference.
///   2. DETECT — the DetectorFeaturePipeline reads that matrix and the
///      protected (victim, last-hop router) list: the abnormal-|Dj| rule
///      per protected last-hop router, then ATR identification from the
///      a_ij column of every alarming victim. The step is a pure
///      function of the matrix plus the pipeline's own state.
///   3. APPLY — pending per-victim actions are applied at ONE scheduled
///      event a fixed control delay later, through the coordinator's
///      engage_victim / disengage_victim registry.
///   4. KEEP-ALIVE — from the first engaging apply event on, the plane
///      sends one "Pushback Continue?" refresh per engaged ATR every
///      refresh_interval (paper Fig. 2). It is the only sender, so the
///      loop lives here; the registry only says which ATRs are engaged.
///
/// Determinism contract: decision points are epoch events, the apply
/// event fires at epoch_end + control_delay (before the next epoch: the
/// Experiment rejects control_delay >= epoch_seconds), and detection
/// reads only the frozen matrix, never live datapath state — so a
/// detector-mode run is a function of its seed alone, and the catalog's
/// detector goldens pin it.
///
/// This file is control-plane code: the maficlint `seams` rule checks
/// it never names FlowTables, FilterEngine or the verdict pipeline —
/// engines are reached only through DefenseActuator, via the
/// coordinator.

#include <cstdint>
#include <vector>

#include "pushback/atr_identifier.hpp"
#include "pushback/coordinator.hpp"
#include "pushback/detector_features.hpp"
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
    bool alarming = false;  ///< detector state after the latest epoch
    std::uint64_t alarms = 0;  ///< raise transitions observed
  };

  ControlPlane(sim::Simulator* sim, PushbackCoordinator* coordinator,
               Config cfg);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Declares a protected destination. Call once per victim, primary
  /// first — statuses() keeps this order.
  void protect(sim::NodeId victim_router, util::Addr victim_addr);

  /// Subscribes the plane's epoch handler to the traffic monitor.
  void watch(sketch::TrafficMonitor& monitor);

  /// Feeds one epoch's matrix directly (what watch() subscribes). Must
  /// be called at an epoch-aligned sim event; schedules the apply event
  /// itself.
  void ingest(const sketch::TrafficMatrixSnapshot& snap);

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
    std::size_t index = 0;  ///< into victims_ and statuses_
    bool engage = false;    ///< otherwise disengage
    std::vector<sim::NodeId> atrs;  ///< newly-identified ATRs to engage
  };

  void apply(const std::vector<Action>& actions);
  void refresh_tick();

  sim::Simulator* sim_;
  PushbackCoordinator* coordinator_;
  Config cfg_;
  DetectorFeaturePipeline pipeline_;
  std::vector<ProtectedVictim> victims_;  ///< in protect() order
  std::vector<VictimStatus> statuses_;    ///< parallel to victims_
  std::uint64_t epochs_ = 0;
  std::uint64_t apply_events_ = 0;
  sim::EventId keepalive_event_ = sim::kInvalidEvent;
};

}  // namespace mafic::pushback
