#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace mafic::scenario {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.total_flows = 20;
  cfg.router_count = 12;
  cfg.seed = 7;
  cfg.end_time = 8.0;
  return cfg;
}

TEST(ExperimentIntegration, ScriptedTriggerProducesPaperBandMetrics) {
  Experiment exp(small_config());
  const auto r = exp.run();
  const auto& m = r.metrics;
  ASSERT_TRUE(m.triggered);
  EXPECT_NEAR(m.trigger_time, 2.7, 1e-9);
  EXPECT_GT(m.alpha, 0.97);
  EXPECT_LT(m.theta_n, 0.03);
  EXPECT_LT(m.lr, 0.12);
  EXPECT_GE(m.theta_p, 0.0);
  EXPECT_LT(m.theta_p, 0.01);
  EXPECT_GT(m.beta, 0.5);
  EXPECT_NEAR(m.alpha + m.theta_n, 1.0, 1e-9);  // complementary by definition
}

TEST(ExperimentIntegration, FlowCountsFollowGamma) {
  auto cfg = small_config();
  cfg.total_flows = 40;
  cfg.tcp_fraction = 0.75;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_EQ(r.legit_flows, 30u);
  EXPECT_EQ(r.attack_flows, 10u);
}

TEST(ExperimentIntegration, AtLeastOneZombieWheneverGammaBelowOne) {
  auto cfg = small_config();
  cfg.total_flows = 10;
  cfg.tcp_fraction = 0.99;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_EQ(r.attack_flows, 1u);
  EXPECT_EQ(r.legit_flows, 9u);
}

TEST(ExperimentIntegration, DeterministicAcrossRuns) {
  const auto cfg = small_config();
  Experiment a(cfg), b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.events_processed, rb.events_processed);
  EXPECT_DOUBLE_EQ(ra.metrics.alpha, rb.metrics.alpha);
  EXPECT_DOUBLE_EQ(ra.metrics.lr, rb.metrics.lr);
  EXPECT_EQ(ra.metrics.malicious_offered, rb.metrics.malicious_offered);
}

TEST(ExperimentIntegration, SeedsChangeOutcomes) {
  auto cfg = small_config();
  Experiment a(cfg);
  cfg.seed = 99;
  Experiment b(cfg);
  EXPECT_NE(a.run().events_processed, b.run().events_processed);
}

TEST(ExperimentIntegration, AttackIsCutAtVictimLink) {
  Experiment exp(small_config());
  const auto r = exp.run();
  const auto& series = r.victim_offered_bytes;
  const double flood = series.rate_between(2.3, 2.7) * 8.0;
  const double after = series.rate_between(3.5, 4.5) * 8.0;
  EXPECT_GT(flood, 2.0 * after);
}

TEST(ExperimentIntegration, TcpRecoversAfterCut) {
  Experiment exp(small_config());
  const auto r = exp.run();
  const auto& series = r.victim_offered_bytes;
  // Legitimate traffic resumes: late-run rate is well above the probation
  // trough right after the trigger.
  const double trough = series.rate_between(2.74, 2.80) * 8.0;
  const double late = series.rate_between(6.0, 8.0) * 8.0;
  EXPECT_GT(late, trough);
}

TEST(ExperimentIntegration, NoDefenseMeansNoTriggerAndNoDrops) {
  auto cfg = small_config();
  cfg.defense = DefenseKind::kNone;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_FALSE(r.metrics.triggered);
  EXPECT_EQ(r.sft_admissions, 0u);
}

TEST(ExperimentIntegration, ProportionalBaselineHurtsLegitMore) {
  auto cfg = small_config();
  cfg.end_time = 10.0;
  Experiment mafic_exp(cfg);
  const auto mafic_r = mafic_exp.run();

  cfg.defense = DefenseKind::kProportional;
  Experiment prop_exp(cfg);
  const auto prop_r = prop_exp.run();

  ASSERT_TRUE(prop_r.metrics.triggered);
  // Flow-blind dropping keeps eating legitimate packets forever.
  EXPECT_GT(prop_r.metrics.lr, 3.0 * std::max(mafic_r.metrics.lr, 0.001));
  // Both cut the attack hard, though.
  EXPECT_GT(prop_r.metrics.alpha, 0.8);
}

TEST(ExperimentIntegration, AggregateBaselineCutsTraffic) {
  auto cfg = small_config();
  cfg.defense = DefenseKind::kAggregate;
  cfg.aggregate.limit_bps = 200e3;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  EXPECT_GT(r.metrics.alpha, 0.5);   // blunt but effective on volume
  EXPECT_GT(r.metrics.lr, 0.02);     // and indiscriminate
}

TEST(ExperimentIntegration, DetectorModeTriggersOnFlood) {
  auto cfg = small_config();
  cfg.trigger = TriggerMode::kDetector;
  cfg.end_time = 10.0;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Detection happens after the attack begins and within ~1.5 s.
  EXPECT_GT(r.metrics.trigger_time, cfg.attack_start);
  EXPECT_LT(r.metrics.trigger_time, cfg.attack_start + 1.5);
  EXPECT_GT(r.metrics.alpha, 0.9);
}

TEST(ExperimentIntegration, DetectorModeIdentifiesZombieRouters) {
  auto cfg = small_config();
  cfg.trigger = TriggerMode::kDetector;
  cfg.total_flows = 30;
  cfg.tcp_fraction = 0.9;  // 3 zombies
  cfg.end_time = 10.0;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Every ground-truth attack router should be found (recall), since the
  // flood dominates the matrix column.
  EXPECT_GE(r.atr.recall, 0.99);
}

TEST(ExperimentIntegration, ZombieRouterScopeSparesRemoteLegitFlows) {
  auto cfg = small_config();
  cfg.atr_scope = AtrScope::kZombieRouters;
  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Oracle scoping still kills the attack...
  EXPECT_GT(r.metrics.alpha, 0.97);
  // ...and collateral is not worse than the all-ingress default.
  EXPECT_LT(r.metrics.lr, 0.12);
}

TEST(ExperimentIntegration, ScriptedBaselinesEngageZombieRouterScope) {
  // Regression: the scripted trigger scoped baseline filters by their
  // InlineFilter::location(), which for a head filter on an access uplink
  // is the host, never a zombie router — so kZombieRouters baselines never
  // engaged (no drop, alpha NaN) and reported no identified ATRs. The
  // notification now engages the scope's routers through the registry
  // every actuator is registered with.
  for (const DefenseKind defense :
       {DefenseKind::kProportional, DefenseKind::kAggregate}) {
    SCOPED_TRACE(defense == DefenseKind::kProportional ? "proportional"
                                                        : "aggregate");
    ExperimentConfig cfg;
    cfg.total_flows = 24;
    cfg.router_count = 10;
    cfg.seed = 3;
    cfg.end_time = 6.0;
    cfg.defense = defense;
    cfg.atr_scope = AtrScope::kZombieRouters;
    Experiment exp(cfg);
    const auto r = exp.run();
    ASSERT_TRUE(r.metrics.triggered);
    EXPECT_GT(r.metrics.malicious_dropped, 0u);
    EXPECT_FALSE(r.atr.ground_truth.empty());
    EXPECT_EQ(r.atr.identified, r.atr.ground_truth);
    // Every victim reports the notification as its engagement time.
    for (const auto& pv : r.per_victim) {
      EXPECT_DOUBLE_EQ(pv.trigger_time, cfg.scripted_trigger_time);
    }
  }
}

TEST(ExperimentConfigValidation, ZeroEpochThrows) {
  // A zero epoch used to hang the run: the traffic monitor rescheduled
  // itself at the same instant forever.
  auto cfg = small_config();
  cfg.epoch_seconds = 0.0;
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
}

TEST(ExperimentConfigValidation, ZeroRefreshIntervalThrows) {
  // A zero keep-alive interval used to hang a detector run as soon as a
  // response engaged.
  auto cfg = small_config();
  cfg.pushback.refresh_interval = 0.0;
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
}

TEST(ExperimentConfigValidation, ControlDelayNotBelowEpochThrows) {
  // An apply event must land before the next epoch's decisions.
  auto cfg = small_config();
  cfg.pushback.control_delay = cfg.epoch_seconds;
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
}

TEST(ExperimentConfigValidation, NegativeControlDelayThrows) {
  auto cfg = small_config();
  cfg.pushback.control_delay = -0.01;
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
}

TEST(ExperimentConfigValidation, MaficConfigTheEngineRejectsThrows) {
  // The MAFIC config is checked whatever the defense kind: a NaN Pd used
  // to turn the defense off silently, and a zero SFT capacity crashed the
  // first admission.
  for (const DefenseKind kind :
       {DefenseKind::kMafic, DefenseKind::kProportional,
        DefenseKind::kNone}) {
    auto nan_pd = small_config();
    nan_pd.defense = kind;
    nan_pd.mafic.drop_probability = std::nan("");
    EXPECT_THROW(Experiment{nan_pd}, std::invalid_argument);
    auto no_sft = small_config();
    no_sft.defense = kind;
    no_sft.mafic.sft_capacity = 0;
    EXPECT_THROW(Experiment{no_sft}, std::invalid_argument);
    // A NaN or negative quota used to construct and run with per-victim
    // quotas silently off.
    for (const double quota : {std::nan(""), -0.5}) {
      auto bad_quota = small_config();
      bad_quota.defense = kind;
      bad_quota.mafic.sft_victim_quota = quota;
      EXPECT_THROW(Experiment{bad_quota}, std::invalid_argument);
    }
  }
}

/// The paper's ATR drops at the head of each ingress uplink, before the
/// queue.
TEST(Experiment, MaficFilterSitsBeforeTheUplinkQueue) {
  Experiment exp(small_config());
  exp.setup();
  ASSERT_FALSE(exp.domain().access_links().empty());
  for (const auto& access : exp.domain().access_links()) {
    sim::SimplexLink* up = access.uplink;
    // The sketch tap comes first, so the entry itself is not the filter.
    EXPECT_EQ(dynamic_cast<core::MaficFilter*>(up->entry()), nullptr);
    int filters = 0;
    for (sim::Connector* c = up->entry(); c != &up->queue();
         c = c->target()) {
      ASSERT_NE(c, nullptr) << "head chain never reached the queue";
      if (dynamic_cast<core::MaficFilter*>(c) != nullptr) ++filters;
    }
    EXPECT_EQ(filters, 1) << "uplink of host " << access.host;
    EXPECT_EQ(dynamic_cast<core::MaficFilter*>(up->transmitter().target()),
              nullptr)
        << "a MAFIC filter sits after the queue";
  }
}

TEST(ExperimentIntegration, FilterConservation) {
  Experiment exp(small_config());
  exp.run();
  for (const auto* f : exp.mafic_filters()) {
    const auto& s = f->engine().stats();
    EXPECT_EQ(s.offered,
              s.forwarded + s.dropped_probation + s.dropped_pdt)
        << "packets must be either forwarded or dropped";
  }
}

TEST(ExperimentIntegration, TablesPartitionFlows) {
  Experiment exp(small_config());
  const auto r = exp.run();
  // Every admitted probation resolved into exactly one table (none left
  // suspended at the end beyond flows that went quiet mid-window).
  std::size_t pending = 0;
  for (const auto* f : exp.mafic_filters()) {
    pending += f->engine().tables().sft_size();
  }
  EXPECT_EQ(r.sft_admissions, r.moved_to_nft + r.moved_to_pdt + pending);
}

TEST(ExperimentIntegration, SpoofedIllegalSourcesAreScreened) {
  auto cfg = small_config();
  cfg.spoofing.legitimate_weight = 0.0;
  cfg.spoofing.illegal_weight = 0.5;
  cfg.spoofing.unreachable_weight = 0.5;
  Experiment exp(cfg);
  const auto r = exp.run();
  EXPECT_GT(r.screened_sources, 0u);
  EXPECT_GT(r.metrics.alpha, 0.97);
}

TEST(ExperimentIntegration, SnapshotResultMidRun) {
  Experiment exp(small_config());
  exp.run_until(1.0);  // before the attack
  const auto early = exp.snapshot_result();
  EXPECT_FALSE(early.metrics.triggered);
  exp.run_until(8.0);
  const auto late = exp.snapshot_result();
  EXPECT_TRUE(late.metrics.triggered);
}

}  // namespace
}  // namespace mafic::scenario
