// Cross-strategy differential battery over the scenario catalog.
//
// Every catalog entry, shrunk by smoke_scale() at its fixed seed, must
// produce BIT-IDENTICAL decision statistics across the two comparable
// datapath strategies — scalar (num_shards=1) and sharded (4), both with
// the filter at the uplink head, before the queue — extending the
// stateless-coin equivalence contract from bespoke wirings to the whole
// generated-workload catalog.
//
// FNV golden fingerprints pin each scenario's integer decision counts
// and per-victim stats at the catalog seed, so a change that shifts any
// decision anywhere in the catalog has to re-justify the goldens.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "scenario/scenario_catalog.hpp"
#include "scenario/scenario_spec.hpp"

namespace mafic::scenario {
namespace {

// One run per (entry, strategy) for the whole binary: the battery, the
// goldens and the sanity checks all read the same cached outcomes.
const ScenarioOutcome& outcome_of(const ScenarioSpec& smoke_spec,
                                  const Strategy& strat) {
  static std::map<std::string, ScenarioOutcome> cache;
  const std::string key = smoke_spec.name + "/" + strat.label;
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, run_scenario(smoke_spec, strat)).first;
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

TEST(ScenarioCatalog, CrossStrategyBitIdentity) {
  const auto strategies = equivalence_strategies();
  ASSERT_EQ(strategies.size(), 2u);
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    const ScenarioOutcome& base = outcome_of(spec, strategies.front());
    for (std::size_t s = 1; s < strategies.size(); ++s) {
      const ScenarioOutcome& other = outcome_of(spec, strategies[s]);
      SCOPED_TRACE(spec.name + ": " + strategies.front().label + " vs " +
                   strategies[s].label);
      // Field-by-field first so a mismatch names the diverging counter,
      // then the fingerprint seals everything at once.
      EXPECT_EQ(base.result.events_processed,
                other.result.events_processed);
      EXPECT_EQ(base.result.sft_admissions, other.result.sft_admissions);
      EXPECT_EQ(base.result.sft_evictions, other.result.sft_evictions);
      EXPECT_EQ(base.result.quota_evictions,
                other.result.quota_evictions);
      EXPECT_EQ(base.result.moved_to_nft, other.result.moved_to_nft);
      EXPECT_EQ(base.result.moved_to_pdt, other.result.moved_to_pdt);
      EXPECT_EQ(base.result.probes_issued, other.result.probes_issued);
      EXPECT_EQ(base.result.metrics.malicious_dropped,
                other.result.metrics.malicious_dropped);
      EXPECT_EQ(base.result.metrics.legit_dropped,
                other.result.metrics.legit_dropped);
      EXPECT_EQ(base.result.metrics.total_offered,
                other.result.metrics.total_offered);
      ASSERT_EQ(base.result.per_victim.size(),
                other.result.per_victim.size());
      for (std::size_t v = 0; v < base.result.per_victim.size(); ++v) {
        const auto& pa = base.result.per_victim[v];
        const auto& pb = other.result.per_victim[v];
        EXPECT_EQ(pa.victim, pb.victim);
        EXPECT_EQ(pa.decided_nice, pb.decided_nice);
        EXPECT_EQ(pa.decided_malicious, pb.decided_malicious);
        EXPECT_EQ(pa.evictions, pb.evictions);
        EXPECT_EQ(pa.quota_evictions, pb.quota_evictions);
      }
      EXPECT_EQ(base.fingerprint, other.fingerprint);
      EXPECT_EQ(base.phases_fired, other.phases_fired);
    }
  }
}

TEST(ScenarioCatalog, GoldenFingerprints) {
  // Pinned at the catalog seeds, smoke scale, scalar strategy. Any
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
  const Strategy scalar = equivalence_strategies().front();
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end()) << "no golden for " << spec.name;
    EXPECT_EQ(outcome_of(spec, scalar).fingerprint, it->second)
        << spec.name << ": fingerprint drifted — decisions changed";
  }
}

TEST(ScenarioCatalog, TimelinesGenerateAndFireCompletely) {
  const Strategy scalar = equivalence_strategies().front();
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    SCOPED_TRACE(spec.name);
    const Timeline tl = generate_timeline(spec);
    EXPECT_EQ(validate_timeline(spec, tl), "");
    const ScenarioOutcome& out = outcome_of(spec, scalar);
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
  const Strategy scalar = equivalence_strategies().front();
  for (const auto& e : catalog()) {
    const ScenarioSpec spec = smoke_scale(e.spec);
    SCOPED_TRACE(spec.name);
    const auto& r = outcome_of(spec, scalar).result;
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
