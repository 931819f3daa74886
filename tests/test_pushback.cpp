// Pushback building blocks: the abnormal-|Dj| rule of the detector
// pipeline, ATR identification, and a model-based fuzz of the per-victim
// response registry.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "pushback/atr_identifier.hpp"
#include "pushback/coordinator.hpp"
#include "pushback/detector_features.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mafic::pushback {
namespace {

/// Builds a snapshot where router `src` injected `n` packets terminating at
/// router `dst` (optionally with extra unrelated traffic).
sketch::TrafficMatrixSnapshot make_snapshot(std::size_t routers,
                                            sim::NodeId src, sim::NodeId dst,
                                            std::uint64_t n,
                                            std::uint64_t uid_base = 0) {
  sketch::RouterSketchBank bank(routers, 12, 77);
  for (std::uint64_t i = 0; i < n; ++i) {
    bank.record_ingress(src, uid_base + i);
    bank.record_egress(dst, uid_base + i);
  }
  sketch::TrafficMatrixSnapshot snap;
  snap.epoch_start = 0.0;
  snap.epoch_end = 0.1;
  for (std::size_t i = 0; i < routers; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  return snap;
}

/// One protected victim (address 100 + router) behind each of
/// `victim_routers`.
std::vector<ProtectedVictim> victims_behind(
    const std::vector<sim::NodeId>& victim_routers) {
  std::vector<ProtectedVictim> victims;
  for (const sim::NodeId r : victim_routers) victims.push_back({100 + r, r});
  return victims;
}

/// One-victim rule step: the decision for the victim behind router 1.
VictimDecision step1(DetectorFeaturePipeline& pipe,
                     const sketch::TrafficMatrixSnapshot& matrix) {
  return pipe.step(matrix, victims_behind({1})).at(0);
}

// ------------------------------------------------------- the |Dj| rule ---

TEST(DetectorRule, AlarmsOnSuddenSurge) {
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 2;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 50;
  DetectorFeaturePipeline pipe(cfg);

  // Baseline epochs: ~200 packets to router 1. A second victim sits
  // behind router 0, which only sends.
  for (int e = 0; e < 5; ++e) {
    const auto d = pipe.step(make_snapshot(3, 0, 1, 200, e * 1000000ULL),
                             victims_behind({1, 0}));
    EXPECT_FALSE(d[0].alarming || d[1].alarming) << "epoch " << e;
  }
  // Surge: 2000 packets.
  const auto d = pipe.step(make_snapshot(3, 0, 1, 2000, 99000000ULL),
                           victims_behind({1, 0}));
  EXPECT_TRUE(d[0].raised);
  EXPECT_TRUE(d[0].alarming);
  EXPECT_GT(d[0].features.d, d[0].features.baseline * 2.0);
  EXPECT_FALSE(d[1].alarming);
}

TEST(DetectorRule, NoAlarmDuringWarmup) {
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 10;
  DetectorFeaturePipeline pipe(cfg);
  EXPECT_FALSE(step1(pipe, make_snapshot(2, 0, 1, 100)).alarming);
  EXPECT_FALSE(step1(pipe, make_snapshot(2, 0, 1, 5000, 1000000)).alarming);
}

TEST(DetectorRule, AbsoluteFloorSuppressesTinyTraffic) {
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 1000;
  DetectorFeaturePipeline pipe(cfg);
  for (int e = 0; e < 3; ++e) {
    step1(pipe, make_snapshot(2, 0, 1, 20, e * 1000000ULL));
  }
  // 10x the baseline, but under the floor.
  EXPECT_FALSE(step1(pipe, make_snapshot(2, 0, 1, 200, 99000000ULL)).raised);
}

TEST(DetectorRule, ClearsWhenTrafficSubsides) {
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.0;
  cfg.clear_factor = 1.5;
  cfg.min_packets_per_epoch = 50;
  DetectorFeaturePipeline pipe(cfg);

  for (int e = 0; e < 3; ++e) {
    step1(pipe, make_snapshot(2, 0, 1, 200, e * 1000000ULL));
  }
  EXPECT_TRUE(step1(pipe, make_snapshot(2, 0, 1, 2000, 90000000ULL)).raised);
  const auto back = step1(pipe, make_snapshot(2, 0, 1, 210, 91000000ULL));
  EXPECT_TRUE(back.cleared);
  EXPECT_FALSE(back.alarming);
}

TEST(DetectorRule, ClearsWhenAttackSubsidesBelowTriggerFloor) {
  // Regression: the trigger path floors at min_packets_per_epoch, but the
  // clear path used to check only d < clear_factor * max(base, 1). With a
  // small frozen baseline (30 << floor 100) an attack subsiding to
  // 50 pkts/epoch — below the floor, i.e. unable to ever re-trigger —
  // kept the router alarming forever and the baseline frozen.
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.5;
  cfg.clear_factor = 1.5;
  cfg.min_packets_per_epoch = 100;
  DetectorFeaturePipeline pipe(cfg);

  // Small baseline (~30/epoch), well under the alarm floor.
  for (int e = 0; e < 3; ++e) {
    EXPECT_FALSE(
        step1(pipe, make_snapshot(2, 0, 1, 30, e * 1000000ULL)).alarming);
  }
  ASSERT_TRUE(
      step1(pipe, make_snapshot(2, 0, 1, 3000, 90000000ULL)).alarming);
  // Subside to 50/epoch: above 1.5 * 30 = 45, but below the 100 floor.
  // Must clear (and keep clearing on repeat epochs, baseline thawed).
  const auto first = step1(pipe, make_snapshot(2, 0, 1, 50, 91000000ULL));
  EXPECT_TRUE(first.cleared);
  EXPECT_FALSE(first.alarming);
  const auto again = step1(pipe, make_snapshot(2, 0, 1, 50, 92000000ULL));
  EXPECT_FALSE(again.alarming);
  EXPECT_FALSE(again.cleared);
  EXPECT_GT(again.features.baseline, 30.0);  // baseline resumed tracking
}

TEST(DetectorRule, ConfiguredEwmaAlphaChangesDetection) {
  // A non-default ewma_alpha must actually change when the rule fires.
  // Traffic grows 1.15x per epoch, from 100 to 405. Each epoch is judged
  // against a baseline that has learned up to two epochs back (a calm
  // epoch waits for the next to confirm it). With alpha=1.0 that baseline
  // is the sample two back, 1.32x under the current one: under the 1.5x
  // clear threshold, so every epoch is learned and 2.5x never trips. With
  // a tiny alpha the baseline barely moves off 100, and the ramp passes
  // 2.5x it once (and stays alarming).
  const auto alarms_with_alpha = [](double alpha) {
    DetectorFeaturePipeline::Config cfg;
    cfg.warmup_epochs = 1;
    cfg.trigger_factor = 2.5;
    cfg.min_packets_per_epoch = 50;
    cfg.ewma_alpha = alpha;
    DetectorFeaturePipeline pipe(cfg);
    int raised = 0;
    std::uint64_t uid = 0;
    for (const std::uint64_t n :
         {100, 115, 132, 152, 175, 201, 231, 266, 306, 352, 405}) {
      uid += 1000000;
      raised += step1(pipe, make_snapshot(2, 0, 1, n, uid)).raised;
    }
    return raised;
  };
  EXPECT_EQ(alarms_with_alpha(1.0), 0);
  EXPECT_EQ(alarms_with_alpha(0.05), 1);
}

/// Detector settings of the experiment (ExperimentConfig::default_pushback)
/// with the given absolute floor.
DetectorFeaturePipeline::Config experiment_rule(double floor) {
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 12;
  cfg.trigger_factor = 1.8;
  cfg.ewma_alpha = 0.3;
  cfg.min_packets_per_epoch = floor;
  return cfg;
}

TEST(DetectorRule, AttackRampDoesNotPoisonTheBaseline) {
  // Regression: zombies start staggered over a 0.2 s attack ramp, two
  // 0.1 s epochs. The rule used to learn every quiet epoch, so the ramp's
  // first epoch (797, under 1.8 x the ~480 baseline) entered the EWMA and
  // lifted the next threshold above the flood itself: 996 was learned
  // too, and the baseline chased the attack from then on. 797 sits over
  // the 1.5x clear threshold, so it is never learned. The floor is the
  // one the control-plane experiment tests use.
  DetectorFeaturePipeline pipe(experiment_rule(120));

  std::uint64_t uid = 0;
  const auto epoch = [&](std::uint64_t n) {
    uid += 1000000;
    return step1(pipe, make_snapshot(2, 0, 1, n, uid));
  };
  for (const std::uint64_t quiet : {472, 488, 479, 495, 466, 483, 490, 476,
                                    485, 470, 492, 481, 487, 478}) {
    EXPECT_FALSE(epoch(quiet).alarming) << "quiet epoch " << quiet;
  }
  EXPECT_FALSE(epoch(797).alarming);  // the ramp's first epoch
  const VictimDecision flood = epoch(996);
  EXPECT_TRUE(flood.raised);
  EXPECT_LT(flood.features.baseline, 600.0);  // 797 was never learned
  EXPECT_TRUE(epoch(1073).alarming);
  EXPECT_TRUE(epoch(1111).alarming);
}

TEST(DetectorRule, CarpetRampUnderTheTriggerDoesNotPoisonTheBaseline) {
  // Regression: a carpet-bomb army reaching a last-hop router that
  // carries ~1,100 packets per epoch of its own. |Dj| climbs over three
  // epochs (1,313, 1,520, 1,839) and then sits under 1.8x the baseline
  // until a peak. Holding only one calm epoch back still let the ramp's
  // first two epochs and the whole plateau in, the baseline chased the
  // attack and the peak never alarmed. Now only the ramp's first epoch is
  // learned. The epochs are one router's |Dj| from the start of a run
  // (the benchmark's carpet_detector workload at smoke scale, seed 7),
  // with that workload's floor.
  DetectorFeaturePipeline pipe(experiment_rule(150));

  std::uint64_t uid = 0;
  const auto epoch = [&](std::uint64_t n) {
    uid += 1000000;
    return step1(pipe, make_snapshot(2, 0, 1, n, uid));
  };
  for (const std::uint64_t quiet :
       {16, 573, 879, 815, 833, 910, 1299, 1059, 1062, 1210, 1076, 986,
        1099, 975, 1172, 1079, 1188, 1114, 1076, 1093}) {
    EXPECT_FALSE(epoch(quiet).alarming) << "quiet epoch " << quiet;
  }
  for (const std::uint64_t ramp : {1313, 1520, 1839, 1863, 1927, 1953}) {
    EXPECT_FALSE(epoch(ramp).alarming) << "attack epoch " << ramp;
  }
  const VictimDecision peak = epoch(2121);
  EXPECT_TRUE(peak.raised);
  EXPECT_LT(peak.features.baseline, 1200.0);
}

TEST(DetectorRule, BaselineFrozenWhileAlarming) {
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 1;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 50;
  DetectorFeaturePipeline pipe(cfg);
  double base_before = 0.0;
  for (int e = 0; e < 3; ++e) {
    base_before =
        step1(pipe, make_snapshot(2, 0, 1, 200, e * 1000000ULL))
            .features.baseline;
  }
  VictimDecision d;
  for (int e = 0; e < 5; ++e) {  // sustained attack epochs
    d = step1(pipe, make_snapshot(2, 0, 1, 3000, (10 + e) * 1000000ULL));
  }
  EXPECT_TRUE(d.alarming);
  EXPECT_NEAR(d.features.baseline, base_before, base_before * 0.05);
}

TEST(DetectorRule, VictimsBehindOneRouterShareOneRuleStep) {
  // Two victims behind router 1 must see the rule exactly as one victim
  // does: the router's state steps once per epoch, not once per victim
  // (twice would halve the warmup and double the EWMA weight).
  DetectorFeaturePipeline::Config cfg;
  cfg.warmup_epochs = 3;
  cfg.trigger_factor = 2.0;
  cfg.min_packets_per_epoch = 50;
  DetectorFeaturePipeline alone(cfg);
  DetectorFeaturePipeline shared(cfg);
  const std::uint64_t loads[] = {200, 220, 3000, 3000, 210, 200, 3000};
  std::uint64_t uid = 0;
  for (const std::uint64_t n : loads) {
    const auto a = step1(alone, make_snapshot(2, 0, 1, n, uid));
    const auto s =
        shared.step(make_snapshot(2, 0, 1, n, uid), victims_behind({1, 1}));
    uid += 1000000;
    ASSERT_EQ(s.size(), 2u);
    for (const VictimDecision& d : s) {
      EXPECT_EQ(d.alarming, a.alarming) << "load " << n;
      EXPECT_EQ(d.raised, a.raised) << "load " << n;
      EXPECT_EQ(d.cleared, a.cleared) << "load " << n;
      EXPECT_DOUBLE_EQ(d.features.baseline, a.features.baseline);
    }
  }
}

// ----------------------------------------------------- ATR identification ---

TEST(AtrIdentifier, SelectsContributingIngress) {
  // Router 0 sends 5000 packets to victim router 2; router 1 sends 100.
  sketch::RouterSketchBank bank(4, 12, 5);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    bank.record_ingress(0, i);
    bank.record_egress(2, i);
  }
  for (std::uint64_t i = 100000; i < 100100; ++i) {
    bank.record_ingress(1, i);
    bank.record_egress(2, i);
  }
  sketch::TrafficMatrixSnapshot snap;
  for (std::size_t i = 0; i < 4; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }

  AtrConfig cfg;
  cfg.share_threshold = 0.3;
  cfg.min_intersection = 50;
  const auto atrs = identify_atrs(snap, 2, cfg);
  ASSERT_GE(atrs.size(), 1u);
  EXPECT_EQ(atrs[0].router, 0u);
  EXPECT_GT(atrs[0].share, 0.5);
}

TEST(AtrIdentifier, ExcludesVictimRouterAndRespectsCap) {
  sketch::RouterSketchBank bank(5, 12, 5);
  for (sim::NodeId r = 0; r < 4; ++r) {
    for (std::uint64_t i = 0; i < 3000; ++i) {
      const std::uint64_t uid = r * 1000000ULL + i;
      bank.record_ingress(r, uid);
      bank.record_egress(4, uid);
    }
  }
  sketch::TrafficMatrixSnapshot snap;
  for (std::size_t i = 0; i < 5; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  AtrConfig cfg;
  cfg.share_threshold = 0.05;
  cfg.min_intersection = 100;
  cfg.max_atrs = 2;
  const auto atrs = identify_atrs(snap, 4, cfg);
  EXPECT_EQ(atrs.size(), 2u);
  for (const auto& a : atrs) EXPECT_NE(a.router, 4u);
}

TEST(AtrIdentifier, EmptySnapshotYieldsNothing) {
  sketch::RouterSketchBank bank(3, 10, 1);
  sketch::TrafficMatrixSnapshot snap;
  for (std::size_t i = 0; i < 3; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  EXPECT_TRUE(identify_atrs(snap, 2, {}).empty());
}

// ------------------------------------------- response registry, fuzzed ---

/// Engine-like actuator: activation is additive, deactivation flushes.
class FakeActuator final : public core::DefenseActuator {
 public:
  void activate(const core::VictimSet& v) override {
    active_ = true;
    for (const util::Addr a : v) victims.insert(a);
  }
  void refresh() override { ++refreshes; }
  void deactivate() override {
    active_ = false;
    victims.clear();
  }
  bool active() const noexcept override { return active_; }

  bool active_ = false;
  int refreshes = 0;
  std::set<util::Addr> victims;
};

TEST(ResponseRegistryFuzz, MatchesVictimSetOracle) {
  // Seeded interleavings of engage / disengage / keep-alive ticks over 4
  // victims and 6 routers, checked after every step against an oracle
  // that only knows which routers each engaged victim lists. It checks
  // sets, not table contents, so it holds for any retarget mechanism.
  constexpr int kRouters = 6;
  constexpr util::Addr kVictims[] = {100, 101, 102, 103};
  // Actuators per router; router 5 has none (ATRs may be named without
  // anything to actuate there).
  constexpr int kPerRouter[kRouters] = {1, 2, 1, 3, 1, 0};

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator sim;
    PushbackCoordinator coord(&sim);
    std::vector<std::vector<FakeActuator>> actuators(kRouters);
    for (int r = 0; r < kRouters; ++r) {
      actuators[r].resize(kPerRouter[r]);
      for (FakeActuator& a : actuators[r]) {
        coord.register_actuator(sim::NodeId(r), &a);
      }
    }
    int triggers = 0;
    coord.set_trigger_callback([&](double) { ++triggers; });

    std::map<util::Addr, std::set<sim::NodeId>> oracle;  // engaged only
    std::uint64_t retargets = 0;
    bool ever_engaged = false;
    util::Rng rng(seed);

    for (int step = 0; step < 150; ++step) {
      const util::Addr victim = kVictims[rng.index(4)];
      const double roll = rng.uniform01();
      if (roll < 0.45) {
        // Engage at 0..3 routers (duplicates allowed, order random).
        std::vector<sim::NodeId> routers;
        const std::size_t n = rng.index(4);
        for (std::size_t i = 0; i < n; ++i) {
          routers.push_back(sim::NodeId(rng.index(kRouters)));
        }
        coord.engage_victim(victim, routers);
        if (!routers.empty()) {
          oracle[victim].insert(routers.begin(), routers.end());
          ever_engaged = true;
        }
      } else if (roll < 0.8) {
        coord.disengage_victim(victim);
        const auto it = oracle.find(victim);
        if (it != oracle.end()) {
          // A retarget is a flush + re-activate cycle, so only a shared
          // router with actuators to cycle counts.
          for (const sim::NodeId r : it->second) {
            if (kPerRouter[r] == 0) continue;
            for (const auto& [other, routers] : oracle) {
              if (other != victim && routers.contains(r)) {
                ++retargets;
                break;
              }
            }
          }
          oracle.erase(it);
        }
      } else {
        // One keep-alive tick, as the control plane sends it.
        for (const sim::NodeId r : coord.engaged_atrs()) coord.refresh(r);
      }

      std::set<sim::NodeId> engaged_union;
      for (const auto& [v, routers] : oracle) {
        engaged_union.insert(routers.begin(), routers.end());
      }
      for (int r = 0; r < kRouters; ++r) {
        std::set<util::Addr> wanted;
        for (const auto& [v, routers] : oracle) {
          if (routers.contains(sim::NodeId(r))) wanted.insert(v);
        }
        for (const FakeActuator& a : actuators[r]) {
          ASSERT_EQ(a.active(), !wanted.empty())
              << "step " << step << " router " << r;
          ASSERT_EQ(a.victims, wanted) << "step " << step << " router " << r;
        }
      }
      ASSERT_EQ(coord.engaged_atrs(),
                std::vector<sim::NodeId>(engaged_union.begin(),
                                         engaged_union.end()))
          << "step " << step;
      ASSERT_EQ(coord.retargets(), retargets) << "step " << step;
      for (const util::Addr v : kVictims) {
        const auto it = coord.responses().find(v);
        const bool engaged = oracle.contains(v);
        ASSERT_EQ(it != coord.responses().end() && it->second.engaged,
                  engaged);
        if (engaged) {
          ASSERT_EQ(it->second.atrs,
                    std::vector<sim::NodeId>(oracle[v].begin(),
                                             oracle[v].end()));
        }
      }
      ASSERT_EQ(triggers, ever_engaged ? 1 : 0) << "step " << step;
      ASSERT_EQ(coord.triggered(), ever_engaged);
    }

    // Keep-alive reached every actuator at an engaged router exactly once
    // per tick: a final tick moves each engaged actuator by one and no
    // other.
    std::vector<std::vector<int>> before(kRouters);
    for (int r = 0; r < kRouters; ++r) {
      for (const FakeActuator& a : actuators[r]) {
        before[r].push_back(a.refreshes);
      }
    }
    const auto engaged = coord.engaged_atrs();
    for (const sim::NodeId r : engaged) coord.refresh(r);
    for (int r = 0; r < kRouters; ++r) {
      const bool is_engaged = std::binary_search(
          engaged.begin(), engaged.end(), sim::NodeId(r));
      for (std::size_t i = 0; i < actuators[r].size(); ++i) {
        EXPECT_EQ(actuators[r][i].refreshes - before[r][i],
                  is_engaged ? 1 : 0);
      }
    }
  }
}

}  // namespace
}  // namespace mafic::pushback
