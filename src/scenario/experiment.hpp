#pragma once

/// \file experiment.hpp
/// End-to-end experiment wiring for the paper's evaluation: builds the
/// N-router domain, populates it with Vt flows (a Γ fraction of
/// long-lived TCP clients plus zombies flooding the victim at R bps each),
/// installs the LogLogCounter taps and MAFIC filters on every ingress
/// link, runs the pushback pipeline, and reports the five metrics.
///
/// Trigger modes. Both notify through the same per-victim response
/// registry (pushback::PushbackCoordinator::engage_victim):
///  * kScripted (default for figure benches): the pushback notification
///    arrives at a fixed time and engages every protected victim at the
///    AtrScope's routers. This mirrors the paper's evaluation, which
///    studies MAFIC's dropping behaviour *given* the notification ("On
///    receiving the notification of DDoS attack from the victim router,
///    each ATR begins dropping packets", section III-A); detection
///    quality belongs to the set-union substrate of [2]. No keep-alive
///    is sent, so filters stay active for the rest of the run.
///  * kDetector: the full pipeline — LogLog sketches, per-epoch traffic
///    matrix, |Dj| anomaly detection, a_ij ATR identification — drives the
///    activation, asynchronously: a pushback::ControlPlane reads each
///    epoch's frozen traffic matrix, runs the detection step per protected
///    destination, applies per-victim engage/disengage decisions one
///    control delay later, and refreshes every engaged ATR each
///    refresh_interval. Every victim in victim_addrs() is protected.

#include <memory>
#include <vector>

#include "attack/attack_plan.hpp"
#include "attack/spoofing.hpp"
#include "attack/zombie.hpp"
#include "baseline/aggregate_limiter.hpp"
#include "baseline/proportional_dropper.hpp"
#include "core/address_policy.hpp"
#include "core/mafic_filter.hpp"
#include "metrics/ledger.hpp"
#include "metrics/report.hpp"
#include "pushback/control_plane.hpp"
#include "pushback/coordinator.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sketch/router_tap.hpp"
#include "sketch/traffic_matrix.hpp"
#include "topology/topology.hpp"
#include "transport/cbr.hpp"
#include "transport/tcp.hpp"
#include "transport/tcp_sink.hpp"
#include "transport/udp.hpp"

namespace mafic::scenario {

enum class DefenseKind : std::uint8_t {
  kNone,
  kMafic,
  kProportional,
  kAggregate,
};

enum class TriggerMode : std::uint8_t { kScripted, kDetector };

/// Which routers the scripted pushback notification reaches. With spoofed
/// sources the victim cannot exonerate any ingress point, so the paper's
/// response covers every ingress router forwarding victim-bound traffic
/// (kAllIngress, default). kZombieRouters assumes oracle identification
/// and is used by focused tests/ablations.
enum class AtrScope : std::uint8_t { kAllIngress, kZombieRouters };

struct ExperimentConfig {
  // --- Table II parameters -------------------------------------------------
  std::size_t total_flows = 50;    ///< Vt
  double tcp_fraction = 0.95;      ///< Γ (share of legitimate TCP flows)
  // Pd is mafic.drop_probability.
  double attack_rate_bps = 8e6;    ///< R, per zombie (used when army=0)
  std::size_t router_count = 40;   ///< N
  std::uint64_t seed = 1;

  // --- timing --------------------------------------------------------------
  double legit_start_min = 0.05;
  double legit_start_max = 0.60;
  double attack_start = 2.0;
  double attack_ramp = 0.2;
  double scripted_trigger_time = 2.7;
  double end_time = 15.0;

  // --- workload ------------------------------------------------------------
  /// When > 0, the zombie army's *total* rate is fixed at this value and
  /// split evenly across the (1-Γ)·Vt zombies, keeping the flood intensity
  /// constant across the Vt sweeps (as the paper's flat Fig. 4a suggests).
  /// Set to 0 to use attack_rate_bps per zombie (the Fig. 3b R sweep).
  double attack_army_total_bps = 16e6;
  std::uint32_t legit_packet_bytes = 1000;
  std::uint32_t attack_packet_bytes = 250;
  attack::SpoofingConfig spoofing{};  ///< default: all spoofs look legit
  bool per_packet_spoofing = false;
  /// Adaptive adversary (ablation A6): zombies back off when probed,
  /// earning NFT entries, then resume flooding. Pair with
  /// mafic.nft_revalidation_interval to study the countermeasure.
  bool attack_probe_evasion = false;
  double attack_evasion_pause_s = 0.3;
  double legit_udp_fraction = 0.0;  ///< share of legit flows that are CBR
  double legit_udp_rate_bps = 200e3;

  /// Flash crowd: this share of the legitimate flows (taken from the tail
  /// of the legit index range, mixed TCP/UDP) does NOT start in the
  /// steady-state [legit_start_min, legit_start_max] window; instead each
  /// starts uniformly in [flash_crowd_start, flash_crowd_start +
  /// flash_crowd_ramp] — a sudden, correlated surge of *genuine* clients
  /// that the defense must tell apart from a flood (Argyraki & Cheriton's
  /// flash-crowd-vs-flood distinction). 0 disables.
  double flash_crowd_fraction = 0.0;
  double flash_crowd_start = 3.5;
  double flash_crowd_ramp = 0.3;

  /// Additional concurrent victims beyond the domain's primary victim.
  /// Each extra victim is a host attached behind a random ingress router;
  /// legitimate flows and zombies target the victims round-robin, the
  /// scripted trigger engages every victim at the scope's ATRs, and
  /// the per-victim decision breakdown lands in
  /// ExperimentResult::per_victim. Flow keys hash the destination, so one
  /// ATR's tables partition naturally per victim. In kDetector mode every
  /// extra victim's access link is sketch-tapped and the control plane
  /// protects each one independently (per-victim trigger/clear times land
  /// in per_victim). Caveat: the victim-bandwidth instrumentation — beta
  /// and victim_offered_bytes — covers the primary victim's link only;
  /// extra-victim outcomes are reported via per_victim and alpha (defense
  /// drops are counted at the ATRs, victim-agnostic).
  std::size_t extra_victims = 0;

  // --- topology ------------------------------------------------------------
  topology::DomainConfig domain = default_domain();

  // --- defense -------------------------------------------------------------
  DefenseKind defense = DefenseKind::kMafic;
  TriggerMode trigger = TriggerMode::kScripted;
  AtrScope atr_scope = AtrScope::kAllIngress;
  /// The MAFIC engine's settings, Pd (drop_probability, also the
  /// proportional-drop baseline's rate) and the per-victim SFT quota
  /// (sft_victim_quota) included. With extra_victims >= 1 and a quota
  /// > 0, a capacity-saturating flood at one victim can no longer
  /// recycle another victim's in-flight probations — each protected
  /// destination keeps its reserved SFT slots, and per-victim eviction
  /// counts land in ExperimentResult::per_victim. The Experiment
  /// constructor throws std::invalid_argument for a config that
  /// core::validate rejects, whatever the defense kind.
  core::MaficConfig mafic{};
  baseline::AggregateLimiter::Config aggregate{};

  /// Weighted per-victim quotas: weight of each protected destination in
  /// victim order (primary victim first, then the extras in attachment
  /// order), e.g. its provisioned bandwidth in bps. With
  /// mafic.sft_victim_quota > 0, each victim's SFT reservation becomes
  /// proportional to its weight instead of an equal split (missing
  /// entries weigh 1.0, extra entries are ignored). Empty = equal split.
  std::vector<double> sft_victim_weights;

  // --- pushback substrate ----------------------------------------------------
  /// The Experiment constructor also throws std::invalid_argument unless
  /// epoch_seconds > 0, pushback.refresh_interval > 0 and
  /// 0 <= pushback.control_delay < epoch_seconds (an apply event must
  /// land before the next epoch's decisions).
  double epoch_seconds = 0.1;
  pushback::ControlPlane::Config pushback = default_pushback();

  // --- measurement -----------------------------------------------------------
  metrics::ReportWindows windows{};

  static topology::DomainConfig default_domain();
  static pushback::ControlPlane::Config default_pushback();
};

/// ATR identification quality relative to ground truth (routers that
/// actually host zombies).
struct AtrDiagnostics {
  std::vector<sim::NodeId> identified;
  std::vector<sim::NodeId> ground_truth;
  double precision = 0.0;
  double recall = 0.0;
};

/// Per-victim defense outcome (aggregated over every MAFIC filter).
struct VictimBreakdown {
  util::Addr victim = util::kInvalidAddr;
  std::uint64_t decided_nice = 0;
  std::uint64_t decided_malicious = 0;
  std::uint64_t screened_sources = 0;
  /// This victim's probations evicted at SFT capacity before deciding
  /// (the cross-victim starvation signal; zero for a victim whose working
  /// set fits its quota when sft_victim_quota > 0).
  std::uint64_t evictions = 0;
  /// Subset where this victim, over quota, paid for another victim.
  std::uint64_t quota_evictions = 0;
  /// This victim's response in the registry, in both trigger modes
  /// (-1.0 while it never happened): trigger_time is its first
  /// engagement — the scripted notification time, or the first
  /// detector apply event; clear_time its last disengagement (unlatched
  /// detector runs only).
  double trigger_time = -1.0;
  double clear_time = -1.0;
  std::uint64_t alarms = 0;  ///< detector raise transitions (kDetector)
};

struct ExperimentResult {
  metrics::Metrics metrics;
  AtrDiagnostics atr;
  std::vector<VictimBreakdown> per_victim;  ///< primary first, then extras
  util::BinnedSeries victim_offered_bytes;  ///< Fig. 4(b) raw series
  std::size_t legit_flows = 0;
  std::size_t attack_flows = 0;
  std::uint64_t events_processed = 0;

  // Aggregated defense internals (across all filters).
  std::uint64_t sft_admissions = 0;
  std::uint64_t sft_evictions = 0;
  std::uint64_t quota_evictions = 0;
  std::uint64_t moved_to_nft = 0;
  std::uint64_t moved_to_pdt = 0;
  std::uint64_t screened_sources = 0;
  std::uint64_t probes_issued = 0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Builds topology, flows, defense and measurement. Called implicitly by
  /// run(); exposed so examples can inspect/modify before running.
  void setup();
  bool is_setup() const noexcept { return setup_done_; }

  /// Runs to cfg.end_time and computes the result.
  ExperimentResult run();

  /// Advances the simulation clock (setup() must have been called).
  void run_until(double t);

  /// Result computation at the current sim time (usable mid-run).
  ExperimentResult snapshot_result() const;

  // --- component access (valid after setup) --------------------------------
  sim::Simulator& simulator() noexcept { return sim_; }
  sim::Network& network() noexcept { return *net_; }
  topology::Domain& domain() noexcept { return *domain_; }
  metrics::PacketLedger& ledger() noexcept { return ledger_; }
  /// Per-victim response registry every actuator is registered with
  /// (non-null iff a defense is installed).
  pushback::PushbackCoordinator* coordinator() noexcept {
    return coordinator_.get();
  }
  /// Asynchronous detection layer (non-null iff trigger == kDetector and
  /// a defense is installed).
  pushback::ControlPlane* control_plane() noexcept {
    return control_plane_.get();
  }
  /// One filter per ingress uplink (non-empty iff defense == kMafic).
  const std::vector<core::MaficFilter*>& mafic_filters() const noexcept {
    return mafic_filters_;
  }
  const std::vector<transport::TcpSender*>& tcp_senders() const noexcept {
    return tcp_sender_ptrs_;
  }
  const std::vector<attack::Flooder*>& zombies() const noexcept {
    return zombie_ptrs_;
  }
  sketch::TrafficMonitor* traffic_monitor() noexcept {
    return monitor_.get();
  }
  /// The armed zombie-army plan (valid after setup; null with no army).
  /// The scenario engine installs attack-shape phase timelines through
  /// this (AttackPlan::arm_phases).
  attack::AttackPlan* attack_plan() noexcept { return attack_plan_.get(); }
  const ExperimentConfig& config() const noexcept { return cfg_; }
  /// All protected destinations (primary victim + extras).
  const std::vector<util::Addr>& victim_addrs() const noexcept {
    return victim_addrs_;
  }

 private:
  void build_topology();
  void build_sketches();
  void build_defense();
  void build_flows();
  void arm_trigger();
  std::vector<sim::NodeId> ground_truth_atrs() const;
  /// One victim's decision counters aggregated across every MAFIC filter.
  VictimBreakdown victim_breakdown(util::Addr victim) const;

  ExperimentConfig cfg_;
  sim::Simulator sim_;
  sim::PacketFactory factory_;
  util::Rng rng_;

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<topology::Domain> domain_;
  std::unique_ptr<core::AddressPolicy> policy_;

  std::unique_ptr<sketch::RouterSketchBank> bank_;
  std::unique_ptr<sketch::TrafficMonitor> monitor_;
  std::unique_ptr<pushback::PushbackCoordinator> coordinator_;
  std::unique_ptr<pushback::ControlPlane> control_plane_;

  metrics::PacketLedger ledger_;

  std::unique_ptr<attack::SpoofingModel> spoof_model_;
  std::unique_ptr<attack::AttackPlan> attack_plan_;

  // Owned traffic agents.
  std::vector<std::unique_ptr<transport::Agent>> agents_;
  std::vector<transport::TcpSender*> tcp_sender_ptrs_;
  std::vector<attack::Flooder*> zombie_ptrs_;

  // Filters are owned by their links; we keep handles.
  std::vector<core::MaficFilter*> mafic_filters_;

  // Router each zombie sits behind (ground truth for diagnostics).
  std::vector<sim::NodeId> zombie_routers_;

  // Protected destinations: primary victim + cfg.extra_victims hosts,
  // parallel arrays of address, host node, and last-hop router.
  std::vector<util::Addr> victim_addrs_;
  std::vector<sim::NodeId> victim_hosts_;
  std::vector<sim::NodeId> victim_routers_;

  std::size_t legit_count_ = 0;
  std::size_t attack_count_ = 0;
  bool setup_done_ = false;
};

/// Averages metrics over `seeds` runs of the same configuration (only the
/// seed differs). Used by every figure bench.
metrics::Metrics run_averaged(const ExperimentConfig& base,
                              std::size_t seeds,
                              std::vector<ExperimentResult>* out = nullptr);

}  // namespace mafic::scenario
