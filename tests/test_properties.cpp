// Property-style sweeps over the experiment space: for every combination of
// (Pd, seed) and a set of workload shapes, the paper's qualitative
// invariants must hold.

#include <gtest/gtest.h>

#include <cmath>

#include "scenario/experiment.hpp"

namespace mafic::scenario {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.total_flows = 24;
  cfg.router_count = 12;
  cfg.end_time = 8.0;
  return cfg;
}

void check_invariants(const ExperimentResult& r) {
  const auto& m = r.metrics;
  ASSERT_TRUE(m.triggered);

  // All rates are probabilities.
  EXPECT_GE(m.alpha, 0.0);
  EXPECT_LE(m.alpha, 1.0);
  EXPECT_GE(m.theta_n, 0.0);
  EXPECT_LE(m.theta_n, 1.0);
  EXPECT_GE(m.theta_p, 0.0);
  EXPECT_LE(m.theta_p, 1.0);
  EXPECT_GE(m.lr, 0.0);
  EXPECT_LE(m.lr, 1.0);

  // alpha and theta_n are complementary on the defense line.
  EXPECT_NEAR(m.alpha + m.theta_n, 1.0, 1e-9);

  // The headline claims, with slack for small runs:
  EXPECT_GT(m.alpha, 0.95) << "accuracy should stay high";
  EXPECT_LT(m.lr, 0.15) << "collateral damage should stay small";
  EXPECT_LT(m.theta_p, 0.02) << "false positives should be rare";

  // Counting sanity.
  EXPECT_LE(m.malicious_dropped, m.malicious_offered);
  EXPECT_LE(m.legit_dropped, m.legit_offered);
  EXPECT_EQ(m.total_offered, m.malicious_offered + m.legit_offered);
}

using PdSeed = std::tuple<double, std::uint64_t>;

class PdSeedSweep : public ::testing::TestWithParam<PdSeed> {};

TEST_P(PdSeedSweep, InvariantsHold) {
  auto cfg = base_config();
  cfg.mafic.drop_probability = std::get<0>(GetParam());
  cfg.seed = std::get<1>(GetParam());
  Experiment exp(cfg);
  check_invariants(exp.run());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PdSeedSweep,
    ::testing::Combine(::testing::Values(0.7, 0.8, 0.9),
                       ::testing::Values(1ULL, 17ULL, 23ULL)));

class GammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweep, InvariantsHoldAcrossTcpShare) {
  auto cfg = base_config();
  cfg.tcp_fraction = GetParam();
  cfg.seed = 5;
  Experiment exp(cfg);
  check_invariants(exp.run());
}

INSTANTIATE_TEST_SUITE_P(PaperRange, GammaSweep,
                         ::testing::Values(0.35, 0.55, 0.75, 0.95));

class VolumeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VolumeSweep, InvariantsHoldAcrossVt) {
  auto cfg = base_config();
  cfg.total_flows = GetParam();
  cfg.seed = 3;
  Experiment exp(cfg);
  check_invariants(exp.run());
}

INSTANTIATE_TEST_SUITE_P(PaperRange, VolumeSweep,
                         ::testing::Values(10, 30, 60, 100));

class DomainSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DomainSweep, InvariantsHoldAcrossDomainSize) {
  auto cfg = base_config();
  cfg.router_count = GetParam();
  cfg.seed = 11;
  Experiment exp(cfg);
  check_invariants(exp.run());
}

INSTANTIATE_TEST_SUITE_P(PaperRange, DomainSweep,
                         ::testing::Values(20, 40, 80));

TEST(Monotonicity, HigherPdLeaksFewerAttackPackets) {
  // theta_n must decrease (weakly) as Pd grows, averaged over seeds.
  double previous = 1.0;
  for (const double pd : {0.5, 0.7, 0.9}) {
    auto cfg = base_config();
    cfg.mafic.drop_probability = pd;
    const auto m = run_averaged(cfg, 3);
    EXPECT_LT(m.theta_n, previous + 0.003)
        << "theta_n should not grow with Pd (pd=" << pd << ")";
    previous = m.theta_n;
  }
}

TEST(Monotonicity, HigherPdReducesMoreTraffic) {
  double previous = -1.0;
  for (const double pd : {0.5, 0.7, 0.9}) {
    auto cfg = base_config();
    cfg.mafic.drop_probability = pd;
    const auto m = run_averaged(cfg, 3);
    EXPECT_GT(m.beta, previous - 0.05)
        << "beta should not shrink with Pd (pd=" << pd << ")";
    previous = m.beta;
  }
}

TEST(FailureInjection, DefenseSurvivesAttackStoppingEarly) {
  auto cfg = base_config();
  // Attack dies right after the trigger: probations must still resolve.
  cfg.end_time = 8.0;
  Experiment exp(cfg);
  exp.setup();
  exp.simulator().schedule_at(3.0, [&exp] {
    for (auto* z : exp.zombies()) z->stop();
  });
  exp.run_until(cfg.end_time);
  const auto r = exp.snapshot_result();
  ASSERT_TRUE(r.metrics.triggered);
  EXPECT_GT(r.metrics.alpha, 0.9);
  // No probation should be stuck forever.
  for (const auto* f : exp.mafic_filters()) {
    f->engine().tables().for_each_sft([&](const core::SftEntry& e) {
      EXPECT_GT(e.deadline, 3.0);
    });
  }
}

TEST(FailureInjection, LateSecondWaveIsAlsoCut) {
  auto cfg = base_config();
  cfg.end_time = 12.0;
  Experiment exp(cfg);
  exp.setup();
  // First wave stops, a second wave from the same zombies restarts later;
  // their flows are already in the PDT, so the leak must be near zero.
  exp.simulator().schedule_at(4.0, [&exp] {
    for (auto* z : exp.zombies()) z->stop();
  });
  exp.simulator().schedule_at(6.0, [&exp] {
    for (auto* z : exp.zombies()) z->start();
  });
  exp.run_until(cfg.end_time);
  const auto r = exp.snapshot_result();
  EXPECT_GT(r.metrics.alpha, 0.97);
  const double second_wave_at_victim =
      r.victim_offered_bytes.rate_between(6.5, 8.0);
  const double first_wave_at_victim =
      r.victim_offered_bytes.rate_between(2.2, 2.7);
  EXPECT_LT(second_wave_at_victim, first_wave_at_victim * 0.6);
}

TEST(Determinism, AveragingIsReproducible) {
  const auto cfg = base_config();
  const auto a = run_averaged(cfg, 2);
  const auto b = run_averaged(cfg, 2);
  EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
  EXPECT_DOUBLE_EQ(a.lr, b.lr);
  EXPECT_EQ(a.malicious_offered, b.malicious_offered);
}

}  // namespace
}  // namespace mafic::scenario
