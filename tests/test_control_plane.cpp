// Asynchronous control-plane detector layer: multi-victim coordinator
// actuation (engage / disengage / retarget), ControlPlane end-to-end
// sequences against fake actuators (control delay, keep-alive, trigger
// callback), and the multi-victim experiment regression (every protected
// destination must trigger detector-mode defense).

#include <gtest/gtest.h>

#include <vector>

#include "pushback/control_plane.hpp"
#include "pushback/coordinator.hpp"
#include "scenario/experiment.hpp"
#include "sim/simulator.hpp"

namespace mafic::pushback {
namespace {

struct FlowSpec {
  sim::NodeId src;
  sim::NodeId dst;
  std::uint64_t n;
};

/// Builds a snapshot from (src router, dst router, packet count) triples;
/// uid_base keeps packet populations distinct across epochs.
sketch::TrafficMatrixSnapshot make_snapshot(std::size_t routers,
                                            std::vector<FlowSpec> flows,
                                            std::uint64_t uid_base,
                                            double epoch_end = 0.1) {
  sketch::RouterSketchBank bank(routers, 12, 77);
  std::uint64_t uid = uid_base;
  for (const FlowSpec& f : flows) {
    for (std::uint64_t i = 0; i < f.n; ++i, ++uid) {
      bank.record_ingress(f.src, uid);
      bank.record_egress(f.dst, uid);
    }
  }
  sketch::TrafficMatrixSnapshot snap;
  snap.epoch_start = epoch_end - 0.1;
  snap.epoch_end = epoch_end;
  for (std::size_t i = 0; i < routers; ++i) {
    snap.s.push_back(bank.s(sim::NodeId(i)));
    snap.d.push_back(bank.d(sim::NodeId(i)));
  }
  return snap;
}

// ------------------------------------------------- coordinator actuation ---

class FakeActuator final : public core::DefenseActuator {
 public:
  void activate(const core::VictimSet& v) override {
    active_ = true;
    for (const util::Addr a : v) victims.insert(a);
    ++activations;
  }
  void refresh() override { ++refreshes; }
  void deactivate() override {
    active_ = false;
    victims.clear();  // a real engine flushes all tables
    ++deactivations;
  }
  bool active() const noexcept override { return active_; }

  bool active_ = false;
  int activations = 0;
  int refreshes = 0;
  int deactivations = 0;
  core::VictimSet victims;
};

TEST(CoordinatorMultiVictim, EngageActivatesPerRouterUnion) {
  sim::Simulator sim;
  PushbackCoordinator coord(&sim);
  FakeActuator a0, a1;
  coord.register_actuator(0, &a0);
  coord.register_actuator(1, &a1);

  coord.engage_victim(/*victim=*/100, {0, 1});
  EXPECT_TRUE(a0.active() && a1.active());
  EXPECT_TRUE(a0.victims.contains(100) && a1.victims.contains(100));
  EXPECT_TRUE(coord.triggered());

  // Second victim shares router 1 only: a1 gains victim 101, a0 is
  // untouched, and the ATR union covers both routers.
  coord.engage_victim(/*victim=*/101, {1});
  EXPECT_FALSE(a0.victims.contains(101));
  EXPECT_TRUE(a1.victims.contains(100) && a1.victims.contains(101));
  EXPECT_EQ(coord.engaged_atrs(), (std::vector<sim::NodeId>{0, 1}));
  ASSERT_EQ(coord.responses().size(), 2u);
  EXPECT_EQ(coord.responses().at(100).engagements, 1u);

  // Re-engaging with an already-known ATR is a no-op for the actuator.
  const int before = a0.activations;
  coord.engage_victim(100, {0});
  EXPECT_EQ(a0.activations, before);
}

TEST(CoordinatorMultiVictim, DisengageRetargetsSharedRoutersOnly) {
  sim::Simulator sim;
  PushbackCoordinator coord(&sim);
  FakeActuator a0, a1;
  coord.register_actuator(0, &a0);
  coord.register_actuator(1, &a1);

  coord.engage_victim(100, {0, 1});
  coord.engage_victim(101, {1});

  coord.disengage_victim(100);
  // Router 0 was exclusive to victim 100: plain deactivation.
  EXPECT_FALSE(a0.active());
  // Router 1 is shared: flush + re-activate with the remaining victim.
  EXPECT_TRUE(a1.active());
  EXPECT_TRUE(a1.victims.contains(101));
  EXPECT_FALSE(a1.victims.contains(100));
  EXPECT_EQ(coord.retargets(), 1u);
  EXPECT_EQ(coord.engaged_atrs(), (std::vector<sim::NodeId>{1}));
  EXPECT_FALSE(coord.responses().at(100).engaged);
  EXPECT_GE(coord.responses().at(100).clear_time, 0.0);
  // The first trigger time survives the disengage for reporting.
  EXPECT_GE(coord.responses().at(100).trigger_time, 0.0);

  // Re-engagement counts and re-activates.
  coord.engage_victim(100, {0});
  EXPECT_TRUE(a0.active());
  EXPECT_EQ(coord.responses().at(100).engagements, 2u);
}

TEST(CoordinatorMultiVictim, RegistryAloneSchedulesNoKeepAlive) {
  // The scripted notification engages through the registry without a
  // control plane: nothing may be scheduled (the keep-alive belongs to
  // the sender), so engaging adds no event to a scripted run.
  sim::Simulator sim;
  PushbackCoordinator coord(&sim);
  FakeActuator a0;
  coord.register_actuator(0, &a0);
  coord.engage_victim(100, {0});
  coord.engage_victim(101, {0});
  sim.run_until(5.0);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(a0.refreshes, 0);
  EXPECT_TRUE(a0.active());
}

// ----------------------------------------------------- control plane e2e ---

struct PlaneHarness {
  explicit PlaneHarness(bool latch = false) {
    ControlPlane::Config cfg;
    cfg.control_delay = 0.01;
    cfg.refresh_interval = 0.1;
    cfg.latch = latch;
    cfg.atr.share_threshold = 0.2;
    cfg.atr.min_intersection = 100;
    cfg.detector.warmup_epochs = 1;
    cfg.detector.trigger_factor = 2.0;
    cfg.detector.clear_factor = 1.5;
    cfg.detector.min_packets_per_epoch = 50;
    coord = std::make_unique<PushbackCoordinator>(&sim);
    plane = std::make_unique<ControlPlane>(&sim, coord.get(), cfg);
    coord->register_actuator(0, &a0);
    coord->register_actuator(1, &a1);
    // Victim A (addr 100) behind router 2, victim B (addr 101) behind 3.
    plane->protect(2, 100);
    plane->protect(3, 101);
  }

  /// Schedules one epoch snapshot carrying `flows`.
  void epoch_with(double t, std::vector<FlowSpec> flows) {
    auto snap = make_snapshot(4, std::move(flows),
                              static_cast<std::uint64_t>(t * 1e9), t);
    sim.schedule_at(t, [this, s = std::move(snap)] { plane->ingest(s); });
  }

  /// Router 0 -> victim A's router 2 with `to_a` packets, router 1 ->
  /// victim B's router 3 with `to_b`.
  void epoch_at(double t, std::uint64_t to_a, std::uint64_t to_b) {
    epoch_with(t, {{0, 2, to_a}, {1, 3, to_b}});
  }

  /// The victim's response in the registry (default: never engaged).
  PushbackCoordinator::VictimResponse response(util::Addr victim) const {
    const auto it = coord->responses().find(victim);
    return it == coord->responses().end()
               ? PushbackCoordinator::VictimResponse{}
               : it->second;
  }

  sim::Simulator sim;
  std::unique_ptr<PushbackCoordinator> coord;
  std::unique_ptr<ControlPlane> plane;
  FakeActuator a0, a1;
};

TEST(ControlPlane, EngagesEachVictimIndependently) {
  PlaneHarness h;
  // Baselines for both victims, then victim A is flooded; two epochs
  // later victim B too.
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 200, 200);
  h.epoch_at(0.3, 2000, 200);  // A floods
  h.epoch_at(0.4, 2000, 200);
  h.epoch_at(0.5, 2000, 2000);  // B floods

  h.sim.run_until(0.45);
  const auto& st = h.plane->statuses();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_TRUE(st[0].alarming);
  EXPECT_TRUE(h.response(100).engaged);
  EXPECT_DOUBLE_EQ(h.response(100).trigger_time, 0.31);  // epoch + delay
  EXPECT_EQ(h.response(100).atrs, (std::vector<sim::NodeId>{0}));
  EXPECT_TRUE(h.a0.active());
  EXPECT_TRUE(h.a0.victims.contains(100));
  // Victim B is still quiet: no alarm, no actuation at its ATR.
  EXPECT_FALSE(st[1].alarming);
  EXPECT_FALSE(h.response(101).engaged);
  EXPECT_FALSE(h.a1.active());

  h.sim.run_until(0.55);
  EXPECT_TRUE(h.response(101).engaged);
  EXPECT_DOUBLE_EQ(h.response(101).trigger_time, 0.51);
  EXPECT_TRUE(h.a1.active());
  EXPECT_TRUE(h.a1.victims.contains(101));
  EXPECT_EQ(h.coord->engaged_atrs(), (std::vector<sim::NodeId>{0, 1}));
  // A's ATR was already engaged when epoch 0.4 re-identified it (read
  // back from the registry), so only the two raising epochs applied.
  EXPECT_EQ(h.plane->apply_events(), 2u);
}

TEST(ControlPlane, ActivatesOnlyAfterControlDelay) {
  PlaneHarness h;
  int triggers = 0;
  double trigger_at = -1.0;
  h.coord->set_trigger_callback([&](double t) {
    ++triggers;
    trigger_at = t;
  });
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 5000, 200);  // A floods: alarm at the epoch event

  h.sim.run_until(0.205);
  EXPECT_TRUE(h.plane->statuses()[0].alarming);
  EXPECT_FALSE(h.a0.active());  // control delay pending
  EXPECT_FALSE(h.coord->triggered());

  h.sim.run_until(0.25);
  EXPECT_TRUE(h.a0.active());
  EXPECT_TRUE(h.a0.victims.contains(100));
  EXPECT_FALSE(h.a1.active());
  EXPECT_EQ(triggers, 1);
  EXPECT_DOUBLE_EQ(trigger_at, 0.21);
  EXPECT_DOUBLE_EQ(h.coord->trigger_time(), 0.21);
}

TEST(ControlPlane, SurgeAtUnprotectedRouterEngagesNothing) {
  PlaneHarness h;
  // Router 0 floods router 1, which no victim sits behind.
  h.epoch_with(0.1, {{0, 1, 200}});
  h.epoch_with(0.2, {{0, 1, 200}});
  h.epoch_with(0.3, {{0, 1, 5000}});
  h.sim.run_until(0.5);
  for (const auto& st : h.plane->statuses()) {
    EXPECT_FALSE(st.alarming);
    EXPECT_EQ(st.alarms, 0u);
  }
  EXPECT_FALSE(h.a0.active());
  EXPECT_FALSE(h.a1.active());
  EXPECT_FALSE(h.coord->triggered());
  EXPECT_EQ(h.plane->apply_events(), 0u);
}

TEST(ControlPlane, TriggerCallbackFiresOnce) {
  PlaneHarness h(/*latch=*/false);
  int triggers = 0;
  h.coord->set_trigger_callback([&](double) { ++triggers; });
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 5000, 200);   // A engages
  h.epoch_at(0.3, 5000, 5000);  // B engages
  h.epoch_at(0.4, 210, 210);    // both clear and disengage
  h.epoch_at(0.5, 5000, 200);   // A re-engages
  h.sim.run_until(0.6);
  EXPECT_EQ(h.response(100).engagements, 2u);
  EXPECT_EQ(h.response(101).engagements, 1u);
  EXPECT_EQ(triggers, 1);
}

TEST(ControlPlane, KeepAliveRefreshesEachEngagedAtrOncePerTick) {
  PlaneHarness h(/*latch=*/true);
  // A is flooded through router 0; B through routers 0 AND 1, so router
  // 0 is shared by both responses.
  h.epoch_with(0.1, {{0, 2, 200}, {0, 3, 200}, {1, 3, 200}});
  h.epoch_with(0.2, {{0, 2, 200}, {0, 3, 200}, {1, 3, 200}});
  h.epoch_with(0.3, {{0, 2, 3000}, {0, 3, 3000}, {1, 3, 3000}});
  h.sim.run_until(0.305);
  EXPECT_EQ(h.a0.refreshes, 0);

  // Engaged at 0.31; ticks every 0.1 s from then on: 0.41 ... 0.71.
  h.sim.run_until(0.75);
  EXPECT_EQ(h.response(100).atrs, (std::vector<sim::NodeId>{0}));
  EXPECT_EQ(h.response(101).atrs, (std::vector<sim::NodeId>{0, 1}));
  EXPECT_EQ(h.a0.refreshes, 4);  // shared: once per tick, not per victim
  EXPECT_EQ(h.a1.refreshes, 4);
}

TEST(ControlPlane, KeepAliveSkipsDisengagedAtrs) {
  PlaneHarness h(/*latch=*/false);
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 5000, 200);  // A engages at 0.21; ticks from 0.31
  h.epoch_at(0.35, 210, 200);  // A clears: disengaged at 0.36
  h.sim.run_until(0.34);
  EXPECT_EQ(h.a0.refreshes, 1);
  h.sim.run_until(1.0);
  EXPECT_FALSE(h.a0.active());
  EXPECT_EQ(h.a0.refreshes, 1);
  EXPECT_EQ(h.a1.refreshes, 0);
}

TEST(ControlPlane, UnlatchedClearDisengagesAndReengages) {
  PlaneHarness h(/*latch=*/false);
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 2000, 200);  // A floods -> engage
  h.epoch_at(0.3, 210, 200);   // subsides -> clear -> disengage
  h.epoch_at(0.4, 2000, 200);  // floods again -> re-engage

  h.sim.run_until(0.35);
  const auto& st = h.plane->statuses();
  EXPECT_FALSE(st[0].alarming);
  EXPECT_FALSE(h.response(100).engaged);
  EXPECT_DOUBLE_EQ(h.response(100).clear_time, 0.31);
  EXPECT_FALSE(h.a0.active());
  EXPECT_EQ(st[0].alarms, 1u);

  h.sim.run_until(0.45);
  EXPECT_TRUE(h.response(100).engaged);
  EXPECT_EQ(h.plane->statuses()[0].alarms, 2u);
  EXPECT_TRUE(h.a0.active());
  // The first trigger time is preserved across re-engagements.
  EXPECT_DOUBLE_EQ(h.response(100).trigger_time, 0.21);
  EXPECT_EQ(h.response(100).engagements, 2u);
}

TEST(ControlPlane, LatchedResponseSurvivesClear) {
  PlaneHarness h(/*latch=*/true);
  h.epoch_at(0.1, 200, 200);
  h.epoch_at(0.2, 2000, 200);
  h.epoch_at(0.3, 210, 200);  // alarm clears, response must not

  h.sim.run_until(0.35);
  EXPECT_FALSE(h.plane->statuses()[0].alarming);
  EXPECT_TRUE(h.response(100).engaged);
  EXPECT_LT(h.response(100).clear_time, 0.0);
  EXPECT_TRUE(h.a0.active());
}

}  // namespace
}  // namespace mafic::pushback

// -------------------------------------------- experiment-level regression ---

namespace mafic::scenario {
namespace {

TEST(ControlPlaneExperiment, DetectorModeProtectsEveryVictim) {
  // Regression for the single-victim build_defense() bug: with
  // extra_victims > 0 only the primary destination was ever protected
  // (and only its access link sketch-tapped), so secondary victims never
  // triggered detector-mode defense. Every victim must now alarm and
  // engage on its own schedule.
  ExperimentConfig cfg;
  cfg.total_flows = 24;  // 18 legit + 6 zombies, 2 per victim
  cfg.tcp_fraction = 0.75;
  cfg.router_count = 12;
  cfg.seed = 7;
  cfg.extra_victims = 2;
  cfg.trigger = TriggerMode::kDetector;
  cfg.attack_army_total_bps = 60e6;
  // A victim's last-hop |Dj| also carries colocated hosts' egress (TCP
  // ack streams), so the floor sits above that background noise.
  cfg.pushback.detector.min_packets_per_epoch = 120;
  cfg.end_time = 10.0;

  Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  ASSERT_EQ(r.per_victim.size(), 3u);
  for (std::size_t v = 0; v < r.per_victim.size(); ++v) {
    SCOPED_TRACE("victim " + std::to_string(v));
    EXPECT_GE(r.per_victim[v].alarms, 1u);
    EXPECT_GT(r.per_victim[v].trigger_time, cfg.attack_start);
    EXPECT_LT(r.per_victim[v].trigger_time, cfg.attack_start + 1.5);
  }
  // The per-victim ATR union still finds every zombie router.
  EXPECT_GE(r.atr.recall, 0.99);

  ASSERT_NE(exp.control_plane(), nullptr);
  EXPECT_GT(exp.control_plane()->epochs_observed(), 0u);
}

}  // namespace
}  // namespace mafic::scenario
