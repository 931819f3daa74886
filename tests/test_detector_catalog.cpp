// Detector-mode golden battery.
//
// Catalog shapes re-run with TriggerMode::kDetector — the asynchronous
// control plane (epoch snapshots, per-victim feature detection,
// apply-after-control-delay) replaces the scripted trigger. Golden
// detector fingerprints (decision counts + per-victim alarm/engage
// outcome + identified-ATR set) pin each case at its catalog seed, and
// the trigger, clear and flood-cut checks read the same runs.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "scenario/scenario_catalog.hpp"
#include "scenario/scenario_spec.hpp"

namespace mafic::scenario {
namespace {

// The detector battery's shape coverage: the multi-victim rolling sweep
// (every victim must trigger on its own schedule), the spoof-rotating
// flood (detection keyed on |Dj|, not source identity), and an unlatched
// pulse so clear -> disengage -> re-engage sequences are pinned too.
struct DetectorCase {
  const char* scenario;
  bool latch;
};

constexpr DetectorCase kCases[] = {
    {"carpet_bomb", true},
    {"spoof_churn", true},
    {"pulse_shrew", false},
};

ScenarioSpec detector_spec(const DetectorCase& c) {
  const CatalogEntry* e = find_scenario(c.scenario);
  EXPECT_NE(e, nullptr) << c.scenario;
  ScenarioSpec spec = smoke_scale(e->spec);
  spec.detector_trigger = true;
  spec.detector_latch = c.latch;
  // Smoke scale caps the army at 8e6 bps — too faint against last-hop
  // routers polluted by colocated egress. The battery runs a hotter army
  // and floors |Dj| above the ack-stream noise so detection is on the
  // flood, not on background wobble.
  spec.attack_total_bps = 24e6;
  spec.detector_min_packets = 150.0;
  spec.name = spec.name + (c.latch ? "+detector" : "+detector_unlatched");
  return spec;
}

// One run per case shared by every test in the binary.
const ScenarioOutcome& outcome_of(const ScenarioSpec& spec) {
  static std::map<std::string, ScenarioOutcome> cache;
  auto it = cache.find(spec.name);
  if (it == cache.end()) {
    it = cache.emplace(spec.name, run_scenario(spec)).first;
  }
  return it->second;
}

TEST(DetectorCatalog, GoldenDetectorFingerprints) {
  // Pinned at the catalog seeds, smoke scale. Any
  // control-plane decision shift re-opens these on purpose; regenerate
  // with   ./build/example_scenario_catalog --detector
  const std::map<std::string, std::uint64_t> golden = {
      {"carpet_bomb+detector", 0xbd990f04aa8679e6ULL},
      {"spoof_churn+detector", 0x897565174bb7edd5ULL},
      {"pulse_shrew+detector_unlatched", 0xde7effd903e4168fULL},
  };
  for (const DetectorCase& c : kCases) {
    const ScenarioSpec spec = detector_spec(c);
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end()) << "no golden for " << spec.name;
    EXPECT_EQ(detector_fingerprint(outcome_of(spec).result), it->second)
        << spec.name << ": detector fingerprint drifted";
  }
}

TEST(DetectorCatalog, EveryVictimTriggersInCarpetBomb) {
  // The single-victim regression at catalog scale: the rolling sweep
  // hits every victim, so every victim's own detector must raise and
  // engage — not just the primary's.
  const ScenarioSpec spec = detector_spec(kCases[0]);
  const auto& r = outcome_of(spec).result;
  ASSERT_EQ(r.per_victim.size(), spec.victims);
  ASSERT_GE(spec.victims, 2u);
  for (std::size_t v = 0; v < r.per_victim.size(); ++v) {
    SCOPED_TRACE("victim " + std::to_string(v));
    EXPECT_GE(r.per_victim[v].alarms, 1u);
    EXPECT_GT(r.per_victim[v].trigger_time, spec.attack_start);
  }
  EXPECT_TRUE(r.metrics.triggered);
  EXPECT_FALSE(r.atr.identified.empty());
}

TEST(DetectorCatalog, UnlatchedPulseClearsBetweenBursts) {
  // pulse_shrew with latch off: the alarm must clear in at least one
  // silent trough, producing a recorded disengagement.
  const ScenarioSpec spec = detector_spec(kCases[2]);
  const auto& r = outcome_of(spec).result;
  EXPECT_TRUE(r.metrics.triggered);
  ASSERT_FALSE(r.per_victim.empty());
  EXPECT_GE(r.per_victim[0].alarms, 1u);
  EXPECT_GE(r.per_victim[0].clear_time, 0.0);
}

TEST(DetectorCatalog, DetectorRunsCutTheFlood) {
  // Detector-mode defense must still do its job: the flood is mostly
  // dropped in every battery case, with a sane per-victim report.
  for (const DetectorCase& c : kCases) {
    const ScenarioSpec spec = detector_spec(c);
    SCOPED_TRACE(spec.name);
    const auto& r = outcome_of(spec).result;
    EXPECT_TRUE(r.metrics.triggered);
    EXPECT_GT(r.metrics.malicious_dropped, 0u);
    EXPECT_GT(r.metrics.alpha, 0.5);
    EXPECT_EQ(r.per_victim.size(), spec.victims);
  }
}

}  // namespace
}  // namespace mafic::scenario
