// Golden battery over the scenario catalog.
//
// Every catalog entry runs once, shrunk by smoke_scale() at its fixed
// seed. FNV golden fingerprints pin each scenario's integer decision
// counts and per-victim stats at the catalog seed, so a change that
// shifts any decision anywhere in the catalog has to re-justify the
// goldens; the timeline and defense checks read the same runs.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "scenario/scenario_catalog.hpp"
#include "scenario/scenario_spec.hpp"

namespace mafic::scenario {
namespace {

// One run per entry for the whole binary: the goldens and the sanity
// checks all read the same cached outcomes.
const ScenarioOutcome& outcome_of(const ScenarioSpec& smoke_spec) {
  static std::map<std::string, ScenarioOutcome> cache;
  auto it = cache.find(smoke_spec.name);
  if (it == cache.end()) {
    it = cache.emplace(smoke_spec.name, run_scenario(smoke_spec)).first;
  }
  return it->second;
}

TEST(ScenarioCatalog, ShipsTheRequiredShapes) {
  const auto& entries = catalog();
  ASSERT_GE(entries.size(), 6u);

  std::set<std::string> names;
  std::set<AttackShape> shapes;
  for (const auto& e : entries) {
    EXPECT_TRUE(names.insert(e.spec.name).second)
        << "duplicate catalog name " << e.spec.name;
    shapes.insert(e.spec.shape);
    EXPECT_GE(e.spec.victims, 1u);
    EXPECT_NE(e.motivation, nullptr);
    EXPECT_NE(e.expectation, nullptr);
  }
  // The issue's required workload axes, one named entry each.
  for (const char* required :
       {"pulse_shrew", "flash_crowd", "udp_flood", "carpet_bomb",
        "spoof_churn", "mixed_background"}) {
    EXPECT_NE(find_scenario(required), nullptr) << required;
  }
  for (const AttackShape s :
       {AttackShape::kNone, AttackShape::kFlood, AttackShape::kPulse,
        AttackShape::kCarpetBomb, AttackShape::kSpoofChurn}) {
    EXPECT_TRUE(shapes.count(s)) << "no entry with shape " << to_string(s);
  }
}

TEST(ScenarioCatalog, GoldenFingerprints) {
  // Pinned at the catalog seeds, smoke scale. Any
  // decision shift anywhere re-opens these on purpose; regenerate with
  //   ./build/example_scenario_catalog --smoke
  const std::map<std::string, std::uint64_t> golden = {
      {"pulse_shrew", 0x417e611ee910d8d8ULL},
      {"flash_crowd", 0x39adf33f49da441bULL},
      {"udp_flood", 0xe6233e3d8b9d734fULL},
      {"carpet_bomb", 0x457461b9ecbb4973ULL},
      {"spoof_churn", 0xcbf5b59315a9a06aULL},
      {"mixed_background", 0xdef39a953144d161ULL},
  };
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end()) << "no golden for " << spec.name;
    EXPECT_EQ(outcome_of(spec).fingerprint, it->second)
        << spec.name << ": fingerprint drifted — decisions changed";
  }
}

TEST(ScenarioCatalog, TimelinesGenerateAndFireCompletely) {
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    SCOPED_TRACE(spec.name);
    const Timeline tl = generate_timeline(spec);
    EXPECT_EQ(validate_timeline(spec, tl), "");
    const ScenarioOutcome& out = outcome_of(spec);
    EXPECT_EQ(out.timeline.size(), tl.size());
    // Every phase boundary inside the run window actually ran.
    EXPECT_EQ(out.phases_fired, tl.size());
    const bool dynamic = spec.shape == AttackShape::kPulse ||
                         spec.shape == AttackShape::kCarpetBomb ||
                         spec.shape == AttackShape::kSpoofChurn;
    if (dynamic) {
      EXPECT_GT(tl.size(), 0u);
    }
  }
}

TEST(ScenarioCatalog, EveryEntryDefendsAndReportsPerVictim) {
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    SCOPED_TRACE(spec.name);
    const auto& r = outcome_of(spec).result;
    EXPECT_TRUE(r.metrics.triggered);
    EXPECT_EQ(r.per_victim.size(), spec.victims);
    std::uint64_t decisions = 0;
    for (const auto& pv : r.per_victim) {
      decisions += pv.decided_nice + pv.decided_malicious;
    }
    EXPECT_GT(decisions, 0u);
    EXPECT_GT(r.sft_admissions, 0u);
    if (spec.shape != AttackShape::kNone) {
      EXPECT_GT(r.metrics.malicious_dropped, 0u);
      // The defense cuts most of the flood in every shape.
      EXPECT_GT(r.metrics.alpha, 0.5);
    }
  }
}

TEST(ScenarioCatalog, SmokeScaleIsIdempotentAndBounded) {
  for (const auto& e : catalog()) {
    const ScenarioSpec once = smoke_scale(e.spec);
    const ScenarioSpec twice = smoke_scale(once);
    EXPECT_EQ(once.legit_flows, twice.legit_flows);
    EXPECT_EQ(once.zombies, twice.zombies);
    EXPECT_EQ(once.victims, twice.victims);
    EXPECT_EQ(once.end_time, twice.end_time);
    EXPECT_LE(once.legit_flows, 32u);
    EXPECT_LE(once.zombies, 8u);
    EXPECT_LE(once.victims, 4u);
    EXPECT_LE(once.victim_provisioned_bps.size(), once.victims);
  }
}

}  // namespace
}  // namespace mafic::scenario
