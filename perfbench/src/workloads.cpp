#include "workloads.hpp"

namespace perfbench {

namespace sc = mafic::scenario;

namespace {

// The paper's steady flood at width: 3.7k nodes make all-pairs routing
// the dominant set-up cost, while each zombie keeps one spoofed source
// so the filter mostly runs its NFT/PDT fast path.
sc::ScenarioSpec flood_wide() {
  sc::ScenarioSpec s;
  s.name = "flood_wide";
  s.seed = 33;
  s.shape = sc::AttackShape::kFlood;
  s.routers = 64;
  s.victims = 1;
  s.legit_flows = 3000;
  s.zombies = 600;
  s.attack_total_bps = 64e6;
  s.trigger_time = 2.7;
  s.end_time = 10.0;
  return s;
}

// Per-packet spoofing: every attack packet leaves the fast path, so SFT
// admissions, probe trains and the timer wheel carry the run.
sc::ScenarioSpec spoof_flood() {
  sc::ScenarioSpec s;
  s.name = "spoof_flood";
  s.seed = 55;
  s.shape = sc::AttackShape::kFlood;
  s.routers = 48;
  s.victims = 1;
  s.legit_flows = 800;
  s.zombies = 400;
  s.attack_total_bps = 32e6;
  s.per_packet_spoofing = true;
  s.end_time = 10.0;
  return s;
}

// Carpet bombing under the unlatched detector: the only workload where
// the pushback control plane engages, retargets and disengages, and the
// most event- and hop-heavy one.
sc::ScenarioSpec carpet_detector() {
  sc::ScenarioSpec s;
  s.name = "carpet_detector";
  s.seed = 44;
  s.shape = sc::AttackShape::kCarpetBomb;
  s.routers = 48;
  s.victims = 8;
  s.legit_flows = 1000;
  s.zombies = 400;
  s.attack_total_bps = 48e6;
  s.carpet_dwell = 0.6;
  s.sft_victim_quota = 0.1;
  s.detector_trigger = true;
  s.detector_latch = false;
  s.detector_min_packets = 150.0;
  s.end_time = 12.0;
  return s;
}

}  // namespace

const std::vector<sc::ScenarioSpec>& workloads() {
  static const std::vector<sc::ScenarioSpec> all = {
      flood_wide(), spoof_flood(), carpet_detector()};
  return all;
}

const sc::ScenarioSpec* find_workload(std::string_view name) {
  for (const sc::ScenarioSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sc::ScenarioSpec make_spec(const sc::ScenarioSpec& workload,
                           std::uint64_t seed, bool smoke) {
  sc::ScenarioSpec s = workload;
  s.seed = seed;
  if (smoke) {
    s = sc::smoke_scale(s);
    // smoke_scale's 8 Mb/s army is too faint for the detector to alarm
    // above the last-hop ack noise; a 24 Mb/s army (what the detector
    // battery uses at smoke scale) keeps the engage/disengage path live.
    if (s.detector_trigger) s.attack_total_bps = 24e6;
  }
  return s;
}

}  // namespace perfbench
