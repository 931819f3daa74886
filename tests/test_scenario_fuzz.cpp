// Determinism + well-formedness fuzz for the scenario generator.
//
// Random ScenarioSpecs drawn from a seed must be a PURE function of that
// seed: compiling twice yields the identical ExperimentConfig, generating
// the timeline twice yields the identical event list, and actually running
// the scenario twice yields the identical fingerprint. Generated timelines
// must satisfy the structural contract validate_timeline() enforces — no
// phase before the army finished spawning, pulse edges alternating, carpet
// sweeps covering every victim exactly once per sweep — and the validator
// itself must catch deliberately tampered timelines.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "scenario/scenario_spec.hpp"
#include "util/rng.hpp"

namespace mafic::scenario {
namespace {

ScenarioSpec random_spec(std::uint64_t seed) {
  util::Rng rng(seed);
  ScenarioSpec s;
  s.name = "fuzz";
  s.seed = rng.next();
  s.routers = 4 + rng.index(8);
  const AttackShape shapes[] = {AttackShape::kNone, AttackShape::kFlood,
                                AttackShape::kPulse, AttackShape::kCarpetBomb,
                                AttackShape::kSpoofChurn};
  s.shape = shapes[rng.index(5)];
  s.victims = s.shape == AttackShape::kCarpetBomb ? 2 + rng.index(4)
                                                  : 1 + rng.index(4);
  s.legit_flows = 4 + rng.index(30);
  s.legit_udp_fraction = rng.uniform(0.0, 0.5);
  s.zombies = 1 + rng.index(8);
  s.attack_total_bps = rng.uniform(2e6, 10e6);
  s.attack_start = rng.uniform(1.0, 2.5);
  s.attack_ramp = rng.uniform(0.05, 0.5);
  s.trigger_time = s.attack_start + rng.uniform(0.3, 0.8);
  s.pulse_period = rng.uniform(0.3, 1.5);
  s.pulse_on = rng.uniform(0.05, 1.5);  // generator clamps under period
  s.carpet_dwell = rng.uniform(0.1, 0.6);
  s.churn_interval = rng.uniform(0.1, 0.8);
  if (rng.bernoulli(0.4)) {
    s.flash_fraction = rng.uniform(0.1, 0.6);
    s.flash_start = s.trigger_time + rng.uniform(0.2, 0.8);
    s.flash_ramp = rng.uniform(0.1, 0.5);
  }
  if (rng.bernoulli(0.5) && s.victims > 1) {
    s.sft_victim_quota = rng.uniform(0.05, 0.4);
    for (std::size_t v = 0; v < s.victims; ++v) {
      s.victim_provisioned_bps.push_back(rng.uniform(0.0, 8e6));
    }
  }
  // Leave room for at least one full carpet sweep past the spawn ramp.
  s.end_time = s.attack_start + s.attack_ramp +
               double(s.victims) * s.carpet_dwell + rng.uniform(1.0, 3.0);
  return s;
}

class ScenarioFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioFuzz, CompilesAndGeneratesIdenticallyOnRepeat) {
  const ScenarioSpec a = random_spec(GetParam());
  const ScenarioSpec b = random_spec(GetParam());

  const ExperimentConfig ca = compile(a);
  const ExperimentConfig cb = compile(b);
  EXPECT_EQ(ca.seed, cb.seed);
  EXPECT_EQ(ca.total_flows, cb.total_flows);
  EXPECT_EQ(ca.tcp_fraction, cb.tcp_fraction);
  EXPECT_EQ(ca.router_count, cb.router_count);
  EXPECT_EQ(ca.extra_victims, cb.extra_victims);
  EXPECT_EQ(ca.mafic.sft_victim_quota, cb.mafic.sft_victim_quota);
  EXPECT_EQ(ca.sft_victim_weights, cb.sft_victim_weights);
  EXPECT_EQ(ca.flash_crowd_fraction, cb.flash_crowd_fraction);
  EXPECT_EQ(ca.end_time, cb.end_time);

  const Timeline ta = generate_timeline(a);
  const Timeline tb = generate_timeline(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].at, tb[i].at);
    EXPECT_EQ(ta[i].action, tb[i].action);
    EXPECT_EQ(ta[i].victim, tb[i].victim);
  }
}

TEST_P(ScenarioFuzz, TimelineIsWellFormed) {
  const ScenarioSpec s = random_spec(GetParam());
  const Timeline tl = generate_timeline(s);
  EXPECT_EQ(validate_timeline(s, tl), "");

  // No zombie fires before the whole army has spawned, independently of
  // the validator's implementation.
  const double spawn_done = s.attack_start + s.attack_ramp;
  for (const TimelineEvent& ev : tl) {
    EXPECT_GE(ev.at, spawn_done);
    EXPECT_LT(ev.at, s.end_time);
  }
}

TEST_P(ScenarioFuzz, CarpetSweepsCoverEveryVictimExactlyOnce) {
  ScenarioSpec s = random_spec(GetParam());
  s.shape = AttackShape::kCarpetBomb;
  if (s.victims < 2) s.victims = 2;
  const Timeline tl = generate_timeline(s);
  ASSERT_FALSE(tl.empty());  // end_time always leaves room for one sweep
  ASSERT_EQ(tl.size() % s.victims, 0u);
  for (std::size_t block = 0; block < tl.size(); block += s.victims) {
    std::set<std::size_t> hit;
    for (std::size_t i = 0; i < s.victims; ++i) {
      const TimelineEvent& ev = tl[block + i];
      EXPECT_EQ(ev.action, attack::PhaseAction::kRetarget);
      EXPECT_LT(ev.victim, s.victims);
      EXPECT_TRUE(hit.insert(ev.victim).second)
          << "victim " << ev.victim << " hit twice in sweep "
          << block / s.victims;
    }
    EXPECT_EQ(hit.size(), s.victims);
  }
}

TEST_P(ScenarioFuzz, ValidatorCatchesTampering) {
  ScenarioSpec s = random_spec(GetParam());
  s.shape = AttackShape::kCarpetBomb;
  if (s.victims < 2) s.victims = 2;
  const Timeline tl = generate_timeline(s);
  ASSERT_FALSE(tl.empty());

  {  // phase before the army finished spawning
    Timeline bad = tl;
    bad.front().at = s.attack_start * 0.5;
    EXPECT_NE(validate_timeline(s, bad), "");
  }
  {  // out-of-range victim index
    Timeline bad = tl;
    bad.front().victim = s.victims;
    EXPECT_NE(validate_timeline(s, bad), "");
  }
  {  // broken sweep: one victim hit twice
    Timeline bad = tl;
    bad[1].victim = bad[0].victim;
    EXPECT_NE(validate_timeline(s, bad), "");
  }
  {  // time order violated
    Timeline bad = tl;
    std::swap(bad.front().at, bad.back().at);
    EXPECT_NE(validate_timeline(s, bad), "");
  }
  {  // foreign action kind for the shape
    Timeline bad = tl;
    bad.front().action = attack::PhaseAction::kRotateSpoof;
    EXPECT_NE(validate_timeline(s, bad), "");
  }
  {  // double stop on a pulse shape
    ScenarioSpec p = s;
    p.shape = AttackShape::kPulse;
    Timeline pulse = generate_timeline(p);
    if (pulse.size() >= 2) {
      Timeline bad = pulse;
      bad[1] = bad[0];
      EXPECT_NE(validate_timeline(p, bad), "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioFuzz,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 8ULL,
                                           13ULL, 21ULL, 34ULL, 55ULL,
                                           89ULL, 144ULL, 233ULL));

// Whole-pipeline determinism: the same random spec RUN twice (fresh
// Experiment, fresh simulator) lands on the identical fingerprint. Two
// seeds keep this affordable; the catalog battery covers breadth.
TEST(ScenarioFuzzRun, RepeatedRunsAreBitIdentical) {
  for (const std::uint64_t seed : {7ULL, 42ULL}) {
    const ScenarioSpec s = random_spec(seed);
    const ScenarioOutcome a = run_scenario(s);
    const ScenarioOutcome b = run_scenario(s);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.phases_fired, b.phases_fired);
    EXPECT_EQ(a.result.events_processed, b.result.events_processed);
  }
}

}  // namespace
}  // namespace mafic::scenario
