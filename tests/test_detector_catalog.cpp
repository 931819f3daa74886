// Detector-mode cross-strategy battery.
//
// Catalog shapes re-run with TriggerMode::kDetector — the asynchronous
// control plane (epoch snapshots, per-victim feature detection,
// apply-after-control-delay) replaces the scripted trigger — and must
// stay BIT-IDENTICAL across the two comparable datapath strategies:
// same detector_fingerprint (decision counts + per-victim alarm/engage
// outcome + identified-ATR set), and exactly equal per-victim trigger /
// clear times (apply events are epoch-aligned, so the doubles match to
// the bit even though they stay out of the hash).
//
// This extends the scalar-vs-sharded equivalence contract to the control
// plane: the shard count may not move a single alarm or ATR.

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
// pulse so clear -> disengage -> re-engage sequences cross strategies.
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

// One run per (case, strategy) shared by every test in the binary.
const ScenarioOutcome& outcome_of(const ScenarioSpec& spec,
                                  const Strategy& strat) {
  static std::map<std::string, ScenarioOutcome> cache;
  const std::string key = spec.name + "/" + strat.label;
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, run_scenario(spec, strat)).first;
  }
  return it->second;
}

TEST(DetectorCatalog, CrossStrategyBitIdentity) {
  const auto strategies = equivalence_strategies();
  ASSERT_EQ(strategies.size(), 2u);
  for (const DetectorCase& c : kCases) {
    const ScenarioSpec spec = detector_spec(c);
    const ScenarioOutcome& base = outcome_of(spec, strategies.front());
    for (std::size_t s = 1; s < strategies.size(); ++s) {
      const ScenarioOutcome& other = outcome_of(spec, strategies[s]);
      SCOPED_TRACE(spec.name + ": " + strategies.front().label + " vs " +
                   strategies[s].label);
      // Per-victim control-plane outcome first, field by field, so a
      // mismatch names the victim and the diverging quantity.
      ASSERT_EQ(base.result.per_victim.size(),
                other.result.per_victim.size());
      for (std::size_t v = 0; v < base.result.per_victim.size(); ++v) {
        const auto& pa = base.result.per_victim[v];
        const auto& pb = other.result.per_victim[v];
        SCOPED_TRACE("victim " + std::to_string(v));
        EXPECT_EQ(pa.alarms, pb.alarms);
        // Apply events fire at epoch_end + control_delay on every
        // strategy, so the times are equal to the BIT, not just close.
        EXPECT_EQ(pa.trigger_time, pb.trigger_time);
        EXPECT_EQ(pa.clear_time, pb.clear_time);
        EXPECT_EQ(pa.decided_nice, pb.decided_nice);
        EXPECT_EQ(pa.decided_malicious, pb.decided_malicious);
      }
      EXPECT_EQ(base.result.atr.identified, other.result.atr.identified);
      EXPECT_EQ(detector_fingerprint(base.result),
                detector_fingerprint(other.result));
    }
  }
}

TEST(DetectorCatalog, GoldenDetectorFingerprints) {
  // Pinned at the catalog seeds, smoke scale, scalar strategy. Any
  // control-plane decision shift re-opens these on purpose; regenerate
  // with   ./build/example_scenario_catalog --detector
  const std::map<std::string, std::uint64_t> golden = {
      {"carpet_bomb+detector", 0xbd990f04aa8679e6ULL},
      {"spoof_churn+detector", 0x897565174bb7edd5ULL},
      {"pulse_shrew+detector_unlatched", 0xde7effd903e4168fULL},
  };
  const Strategy scalar = equivalence_strategies().front();
  for (const DetectorCase& c : kCases) {
    const ScenarioSpec spec = detector_spec(c);
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end()) << "no golden for " << spec.name;
    EXPECT_EQ(detector_fingerprint(outcome_of(spec, scalar).result),
              it->second)
        << spec.name << ": detector fingerprint drifted";
  }
}

TEST(DetectorCatalog, EveryVictimTriggersInCarpetBomb) {
  // The single-victim regression at catalog scale: the rolling sweep
  // hits every victim, so every victim's own detector must raise and
  // engage — not just the primary's.
  const ScenarioSpec spec = detector_spec(kCases[0]);
  const Strategy scalar = equivalence_strategies().front();
  const auto& r = outcome_of(spec, scalar).result;
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
  const Strategy scalar = equivalence_strategies().front();
  const auto& r = outcome_of(spec, scalar).result;
  EXPECT_TRUE(r.metrics.triggered);
  ASSERT_FALSE(r.per_victim.empty());
  EXPECT_GE(r.per_victim[0].alarms, 1u);
  EXPECT_GE(r.per_victim[0].clear_time, 0.0);
}

TEST(DetectorCatalog, DetectorRunsCutTheFlood) {
  // Detector-mode defense must still do its job: the flood is mostly
  // dropped in every battery case, with a sane per-victim report.
  const Strategy scalar = equivalence_strategies().front();
  for (const DetectorCase& c : kCases) {
    const ScenarioSpec spec = detector_spec(c);
    SCOPED_TRACE(spec.name);
    const auto& r = outcome_of(spec, scalar).result;
    EXPECT_TRUE(r.metrics.triggered);
    EXPECT_GT(r.metrics.malicious_dropped, 0u);
    EXPECT_GT(r.metrics.alpha, 0.5);
    EXPECT_EQ(r.per_victim.size(), spec.victims);
  }
}

}  // namespace
}  // namespace mafic::scenario
