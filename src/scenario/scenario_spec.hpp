#pragma once

/// \file scenario_spec.hpp
/// Seeded scenario/workload generator: a declarative ScenarioSpec
/// (topology shape, victim set, legitimate background mix, attack shape)
/// compiled into the existing ExperimentConfig / Topology / AttackPlan
/// machinery, plus a generated attack TIMELINE of army-wide phase actions
/// (attack_plan.hpp) realizing the dynamic shapes the related work
/// enumerates — pulsing shrew on/off cycles, flash-crowd ramps of
/// legitimate flows, carpet-bombing that rolls across victims, spoof-churn
/// that rotates source addresses mid-flood — on top of the steady flood
/// the paper evaluated.
///
/// Everything is a pure function of the spec: compile() and
/// generate_timeline() are deterministic (same spec -> same config, same
/// timeline), and validate_timeline() checks the structural contract the
/// fuzz battery pins (sorted times, no phase before the army finished
/// spawning, start/stop alternation, carpet sweeps covering every victim
/// exactly once per sweep).
///
/// run_scenario() executes one spec and fingerprints the integer decision
/// statistics, which the golden maps (test_scenario_catalog.cpp,
/// test_detector_catalog.cpp) pin per catalog entry. The named catalog
/// lives in scenario_catalog.hpp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack_plan.hpp"
#include "scenario/experiment.hpp"

namespace mafic::scenario {

/// Attack-plan shape a spec compiles into a phase timeline.
enum class AttackShape : std::uint8_t {
  kNone,        ///< no zombies (flash-crowd / baseline studies)
  kFlood,       ///< the paper's steady flood: ramp up, never stop
  kPulse,       ///< shrew on/off cycles (kStopAll/kStartAll edges)
  kCarpetBomb,  ///< the army rolls across victims (kRetarget sweeps)
  kSpoofChurn,  ///< sources re-spoof mid-flood (kRotateSpoof ticks)
};

const char* to_string(AttackShape s) noexcept;

/// Declarative scenario description. Defaults are a small single-victim
/// flood; the catalog scales the knobs per entry.
struct ScenarioSpec {
  std::string name;  ///< catalog key (also used in test labels)
  std::uint64_t seed = 1;

  // --- topology ------------------------------------------------------------
  std::size_t routers = 40;  ///< domain fan-out (ingress routers)
  std::size_t victims = 1;   ///< protected destinations (>= 1)
  /// Per-victim provisioned bandwidth (bps), victim order; drives the
  /// weighted SFT quotas (reservations proportional to provisioned
  /// bandwidth). Empty = equal split.
  std::vector<double> victim_provisioned_bps;

  // --- legitimate background ----------------------------------------------
  std::size_t legit_flows = 45;
  double legit_udp_fraction = 0.0;  ///< CBR/UDP share of the background
  /// Flash crowd: this share of the legit flows starts in a tight window
  /// at flash_start instead of trickling in at sim start.
  double flash_fraction = 0.0;
  double flash_start = 3.5;
  double flash_ramp = 0.3;

  // --- attack --------------------------------------------------------------
  AttackShape shape = AttackShape::kFlood;
  std::size_t zombies = 5;        ///< ignored (forced 0) for kNone
  double attack_total_bps = 16e6; ///< army total, split across zombies
  double attack_start = 2.0;
  double attack_ramp = 0.2;       ///< army spawn stagger window
  bool per_packet_spoofing = false;
  double pulse_period = 1.2;      ///< kPulse: cycle length (s)
  double pulse_on = 0.4;          ///< kPulse: on-time per cycle (s)
  double carpet_dwell = 0.6;      ///< kCarpetBomb: time on each victim (s)
  double churn_interval = 0.5;    ///< kSpoofChurn: re-spoof period (s)

  // --- defense -------------------------------------------------------------
  double drop_probability = 0.9;
  double sft_victim_quota = 0.0;  ///< MaficConfig::sft_victim_quota
  std::size_t sft_capacity = 4096;
  double trigger_time = 2.7;      ///< scripted pushback notification
  /// TriggerMode::kDetector: the asynchronous control plane (frozen epoch
  /// traffic matrix, per-victim |Dj| detection, apply-after-control-delay)
  /// drives activation instead of the scripted notification. The
  /// detector battery runs catalog shapes with this on and pins their
  /// detector_fingerprint().
  bool detector_trigger = false;
  bool detector_latch = true;  ///< pushback latch in detector mode
  /// Detector |Dj| floor override (packets/epoch; 0 = library default).
  /// A victim's last-hop router also carries colocated hosts' egress
  /// (TCP ack streams), so batteries set this above that noise.
  double detector_min_packets = 0.0;

  // --- run -----------------------------------------------------------------
  double end_time = 8.0;
};

/// One generated timeline event in SPEC space: `victim` is an index into
/// the victim set (kRetarget only) — resolved to a concrete address only
/// after Experiment::setup() assigned them. Actions apply army-wide.
struct TimelineEvent {
  double at = 0.0;
  attack::PhaseAction action = attack::PhaseAction::kStart;
  std::size_t victim = 0;
};

using Timeline = std::vector<TimelineEvent>;

/// Compiles the declarative spec into a runnable ExperimentConfig
/// (topology, flow counts, defense, timing). Pure and deterministic; does
/// NOT include the timeline (install after setup). kNone forces zero
/// zombies.
ExperimentConfig compile(const ScenarioSpec& spec);

/// Generates the attack-phase timeline for the spec's shape. Seeded by
/// spec.seed: carpet-bomb sweep orders are per-sweep permutations drawn
/// from a dedicated stream. kNone/kFlood yield an empty timeline.
Timeline generate_timeline(const ScenarioSpec& spec);

/// Structural well-formedness check ("" = OK, else a diagnostic):
///  - times strictly inside (0, end_time), non-decreasing;
///  - nothing fires before attack_start + attack_ramp (the army must have
///    finished spawning — no zombie fires before spawn);
///  - start/stop edges alternate (the army starts running: first edge is
///    a stop) and retarget/rotate only happen while running;
///  - kRetarget victim indices are in range; for kCarpetBomb the
///    retargets split into consecutive sweeps, each covering every victim
///    exactly once;
///  - shapes only emit their own action kinds (kNone/kFlood: empty).
std::string validate_timeline(const ScenarioSpec& spec, const Timeline& tl);

/// Deterministically shrinks a nominal (internet-scale) spec to a size a
/// unit test / CI smoke step can run in seconds, preserving the shape:
/// victim count capped at 4 (weights re-truncated), flow counts and
/// fan-out capped, end_time tightened. Idempotent.
ScenarioSpec smoke_scale(ScenarioSpec spec);

/// What one scenario run produces.
struct ScenarioOutcome {
  ExperimentResult result;
  Timeline timeline;               ///< as installed (spec space)
  std::uint64_t phases_fired = 0;  ///< timeline boundaries that ran
  std::uint64_t fingerprint = 0;   ///< fingerprint(result)
};

/// FNV-1a (64-bit) over the result's INTEGER decision statistics: flow
/// counts, events processed, aggregated defense internals, the metrics
/// packet counters, and the ordered per-victim breakdown. Doubles (rates,
/// times) and unordered diagnostics are excluded, so the value is exactly
/// reproducible for a fixed spec.
std::uint64_t fingerprint(const ExperimentResult& r);

/// fingerprint(r) extended with the detector-mode outcome: per-victim
/// alarm counts and engage/clear flags, and the ordered identified-ATR
/// set. Trigger/clear TIMES are doubles and stay out of the hash (same
/// exclusion rule as fingerprint()).
std::uint64_t detector_fingerprint(const ExperimentResult& r);

/// Compiles, installs the generated timeline and runs to end_time.
/// Throws std::runtime_error on a timeline that fails validation —
/// generate_timeline and validate_timeline are tested to agree.
ScenarioOutcome run_scenario(const ScenarioSpec& spec);

}  // namespace mafic::scenario
