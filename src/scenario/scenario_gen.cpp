#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace mafic::scenario {

const char* to_string(AttackShape s) noexcept {
  switch (s) {
    case AttackShape::kNone:
      return "none";
    case AttackShape::kFlood:
      return "flood";
    case AttackShape::kPulse:
      return "pulse";
    case AttackShape::kCarpetBomb:
      return "carpet_bomb";
    case AttackShape::kSpoofChurn:
      return "spoof_churn";
  }
  return "?";
}

ExperimentConfig compile(const ScenarioSpec& spec) {
  const std::size_t zombies =
      spec.shape == AttackShape::kNone
          ? 0
          : std::max<std::size_t>(1, spec.zombies);
  const std::size_t total = spec.legit_flows + zombies;

  ExperimentConfig cfg;
  cfg.seed = spec.seed;
  cfg.total_flows = total;
  // Gamma is the legit share; build_flows rounds it back to the exact
  // flow split (legit is an integer, so lround recovers it precisely).
  cfg.tcp_fraction =
      total > 0 ? double(spec.legit_flows) / double(total) : 1.0;
  cfg.router_count = spec.routers;
  cfg.extra_victims = spec.victims > 0 ? spec.victims - 1 : 0;
  cfg.legit_udp_fraction = spec.legit_udp_fraction;
  cfg.flash_crowd_fraction = spec.flash_fraction;
  cfg.flash_crowd_start = spec.flash_start;
  cfg.flash_crowd_ramp = spec.flash_ramp;

  cfg.attack_army_total_bps = spec.attack_total_bps;
  cfg.attack_start = spec.attack_start;
  cfg.attack_ramp = spec.attack_ramp;
  cfg.per_packet_spoofing = spec.per_packet_spoofing;

  cfg.mafic.drop_probability = spec.drop_probability;
  cfg.mafic.sft_victim_quota = spec.sft_victim_quota;
  cfg.sft_victim_weights = spec.victim_provisioned_bps;
  cfg.mafic.sft_capacity = spec.sft_capacity;
  cfg.scripted_trigger_time = spec.trigger_time;
  if (spec.detector_trigger) {
    cfg.trigger = TriggerMode::kDetector;
    cfg.pushback.latch = spec.detector_latch;
    if (spec.detector_min_packets > 0.0) {
      cfg.pushback.detector.min_packets_per_epoch =
          spec.detector_min_packets;
    }
  }
  cfg.end_time = spec.end_time;
  return cfg;
}

Timeline generate_timeline(const ScenarioSpec& spec) {
  Timeline tl;
  // Phase zero: the army finished spawning (arm() staggers starts across
  // [attack_start, attack_start + attack_ramp]); nothing may fire before.
  const double t0 = spec.attack_start + spec.attack_ramp;
  switch (spec.shape) {
    case AttackShape::kNone:
    case AttackShape::kFlood:
      break;

    case AttackShape::kPulse: {
      // Shrew cycles anchored at t0: on for pulse_on, silent for the rest
      // of each period. The on-time is clamped under the period so every
      // cycle has both edges.
      const double period = std::max(1e-3, spec.pulse_period);
      const double on = std::min(std::max(1e-3, spec.pulse_on),
                                 0.9 * period);
      for (std::size_t k = 0;; ++k) {
        const double off_at = t0 + double(k) * period + on;
        const double on_at = t0 + double(k + 1) * period;
        if (off_at >= spec.end_time) break;
        tl.push_back({off_at, attack::PhaseAction::kStop, 0});
        if (on_at >= spec.end_time) break;
        tl.push_back({on_at, attack::PhaseAction::kStart, 0});
      }
      break;
    }

    case AttackShape::kCarpetBomb: {
      // Rolling sweeps: each sweep is a fresh seeded permutation of the
      // victim set, every victim hit exactly once per sweep, the army
      // dwelling carpet_dwell on each. Only complete sweeps are emitted
      // so the exactly-once-per-sweep contract holds by construction.
      const std::size_t v = std::max<std::size_t>(1, spec.victims);
      const double dwell = std::max(1e-3, spec.carpet_dwell);
      util::Rng rng(util::mix64(spec.seed ^ 0xca59e7b0b5eedULL));
      std::vector<std::size_t> order(v);
      std::iota(order.begin(), order.end(), std::size_t{0});
      double t = t0;
      while (t + double(v - 1) * dwell < spec.end_time) {
        rng.shuffle(order);
        for (const std::size_t victim : order) {
          tl.push_back({t, attack::PhaseAction::kRetarget, victim});
          t += dwell;
        }
      }
      break;
    }

    case AttackShape::kSpoofChurn: {
      const double interval = std::max(1e-3, spec.churn_interval);
      for (double t = t0 + interval; t < spec.end_time; t += interval) {
        tl.push_back({t, attack::PhaseAction::kRotateSpoof, 0});
      }
      break;
    }
  }
  return tl;
}

std::string validate_timeline(const ScenarioSpec& spec, const Timeline& tl) {
  const double t0 = spec.attack_start + spec.attack_ramp;
  if ((spec.shape == AttackShape::kNone ||
       spec.shape == AttackShape::kFlood) &&
      !tl.empty()) {
    return "steady shapes must have an empty timeline";
  }
  double prev = t0;
  bool running = true;  // arm() starts the whole army by t0
  std::vector<std::size_t> sweep;  // in-progress carpet sweep
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const TimelineEvent& ev = tl[i];
    if (ev.at <= 0.0 || ev.at >= spec.end_time) {
      return "event outside (0, end_time)";
    }
    if (ev.at < t0) return "phase fires before the army finished spawning";
    if (ev.at < prev) return "events not in time order";
    prev = ev.at;
    switch (ev.action) {
      case attack::PhaseAction::kStart:
        if (spec.shape != AttackShape::kPulse) {
          return "start edge outside a pulse shape";
        }
        if (running) return "start while already running";
        running = true;
        break;
      case attack::PhaseAction::kStop:
        if (spec.shape != AttackShape::kPulse) {
          return "stop edge outside a pulse shape";
        }
        if (!running) return "stop while already stopped";
        running = false;
        break;
      case attack::PhaseAction::kRetarget: {
        if (spec.shape != AttackShape::kCarpetBomb) {
          return "retarget outside a carpet-bomb shape";
        }
        if (!running) return "retarget while stopped";
        if (ev.victim >= spec.victims) return "retarget victim out of range";
        if (std::find(sweep.begin(), sweep.end(), ev.victim) !=
            sweep.end()) {
          return "victim hit twice in one carpet sweep";
        }
        sweep.push_back(ev.victim);
        if (sweep.size() == spec.victims) sweep.clear();  // sweep complete
        break;
      }
      case attack::PhaseAction::kRotateSpoof:
        if (spec.shape != AttackShape::kSpoofChurn) {
          return "rotate_spoof outside a spoof-churn shape";
        }
        if (!running) return "rotate_spoof while stopped";
        break;
    }
  }
  if (!sweep.empty()) {
    return "trailing partial carpet sweep (victims not each hit once)";
  }
  return "";
}

ScenarioSpec smoke_scale(ScenarioSpec spec) {
  spec.routers = std::min<std::size_t>(spec.routers, 10);
  spec.victims = std::min<std::size_t>(std::max<std::size_t>(spec.victims, 1),
                                       4);
  if (spec.victim_provisioned_bps.size() > spec.victims) {
    spec.victim_provisioned_bps.resize(spec.victims);
  }
  spec.legit_flows = std::min<std::size_t>(spec.legit_flows, 32);
  spec.zombies = std::min<std::size_t>(spec.zombies, 8);
  spec.attack_total_bps = std::min(spec.attack_total_bps, 8e6);
  spec.sft_capacity = std::min<std::size_t>(spec.sft_capacity, 512);
  spec.end_time = std::min(spec.end_time, 7.0);
  return spec;
}

std::uint64_t fingerprint(const ExperimentResult& r) {
  // FNV-1a 64-bit over the little-endian bytes of each integer field.
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  add(r.legit_flows);
  add(r.attack_flows);
  add(r.events_processed);
  add(r.sft_admissions);
  add(r.sft_evictions);
  add(r.quota_evictions);
  add(r.moved_to_nft);
  add(r.moved_to_pdt);
  add(r.screened_sources);
  add(r.probes_issued);
  add(r.metrics.malicious_offered);
  add(r.metrics.malicious_dropped);
  add(r.metrics.malicious_arrived);
  add(r.metrics.legit_offered);
  add(r.metrics.legit_dropped);
  add(r.metrics.legit_pdt_dropped);
  add(r.metrics.total_offered);
  add(r.metrics.triggered ? 1 : 0);
  add(r.per_victim.size());
  for (const VictimBreakdown& pv : r.per_victim) {
    add(pv.victim);
    add(pv.decided_nice);
    add(pv.decided_malicious);
    add(pv.screened_sources);
    add(pv.evictions);
    add(pv.quota_evictions);
  }
  return h;
}

std::uint64_t detector_fingerprint(const ExperimentResult& r) {
  std::uint64_t h = fingerprint(r);
  const auto add = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const VictimBreakdown& pv : r.per_victim) {
    add(pv.alarms);
    add(pv.trigger_time >= 0.0 ? 1 : 0);
    add(pv.clear_time >= 0.0 ? 1 : 0);
  }
  add(r.atr.identified.size());
  for (const sim::NodeId id : r.atr.identified) add(id);
  return h;
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec) {
  const ExperimentConfig cfg = compile(spec);
  Timeline tl = generate_timeline(spec);
  const std::string err = validate_timeline(spec, tl);
  if (!err.empty()) {
    throw std::runtime_error("scenario '" + spec.name +
                             "': malformed timeline: " + err);
  }

  Experiment exp(cfg);
  exp.setup();
  if (!tl.empty() && exp.attack_plan() != nullptr) {
    // Resolve spec-space victim indices to the addresses the experiment
    // assigned, and hand the concrete phase list to the army.
    std::vector<attack::AttackPlan::Phase> phases;
    phases.reserve(tl.size());
    for (const TimelineEvent& ev : tl) {
      attack::AttackPlan::Phase ph;
      ph.at = ev.at;
      ph.action = ev.action;
      if (ev.action == attack::PhaseAction::kRetarget) {
        ph.target = exp.victim_addrs()[ev.victim];
      }
      phases.push_back(ph);
    }
    exp.attack_plan()->arm_phases(std::move(phases));
  }

  ScenarioOutcome out;
  out.result = exp.run();
  out.timeline = std::move(tl);
  out.phases_fired =
      exp.attack_plan() != nullptr ? exp.attack_plan()->phases_fired() : 0;
  out.fingerprint = fingerprint(out.result);
  return out;
}

}  // namespace mafic::scenario
