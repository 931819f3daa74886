// FilterEngine under the standalone runtime (manual clock + private
// wheel): the Fig. 2 control flow with no simulator attached. The sim
// adapter path is pinned by test_core_mafic_filter and the fixed-seed
// classification goldens; these tests pin the seams themselves.

#include "core/filter_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/standalone_runtime.hpp"
#include "util/rng.hpp"

namespace mafic::core {
namespace {

sim::FlowLabel label_for(std::uint32_t i, std::uint8_t victim_octet = 1) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff),
          util::make_addr(172, 17, 0, victim_octet),
          std::uint16_t(1024 + i), 80};
}

sim::Packet packet_for(std::uint32_t i, std::uint8_t victim_octet = 1) {
  sim::Packet p;
  p.label = label_for(i, victim_octet);
  p.proto = sim::Protocol::kTcp;
  p.size_bytes = 1000;
  return p;
}

MaficConfig test_config() {
  MaficConfig cfg;
  cfg.default_rtt = 0.04;  // 0.08 s probation windows
  cfg.probe_enabled = true;
  return cfg;
}

class FilterEngineTest : public ::testing::Test {
 protected:
  FilterEngineTest()
      : runtime(test_config(), nullptr),
        engine(runtime.engine()) {
    engine.activate({util::make_addr(172, 17, 0, 1)});
  }

  EngineRuntime runtime;
  FilterEngine& engine;
};

TEST_F(FilterEngineTest, InactiveOrForeignPacketsForwardUntouched) {
  EngineRuntime rt(test_config(), nullptr);
  sim::Packet p = packet_for(0);
  EXPECT_EQ(rt.engine().inspect(p), EngineVerdict::kForward);  // inactive
  EXPECT_EQ(rt.engine().stats().offered, 0u);

  sim::Packet other = packet_for(0, /*victim_octet=*/99);  // not a victim
  EXPECT_EQ(engine.inspect(other), EngineVerdict::kForward);
  EXPECT_EQ(engine.stats().offered, 0u);
}

TEST_F(FilterEngineTest, FirstDropOpensProbationWithTimers) {
  // Pd = 0.9: hammer one flow until the coin admits it (first sight with
  // seed 42 in practice, but the loop keeps the test seed-agnostic).
  sim::Packet p = packet_for(7);
  for (int i = 0; i < 64 && engine.tables().sft_size() == 0; ++i) {
    engine.inspect(p);
  }
  ASSERT_EQ(engine.tables().sft_size(), 1u);
  // Probe timer (midpoint) + decision timer ride this shard's wheel.
  EXPECT_EQ(runtime.advance_until(0.0), 0u);
  EXPECT_GE(engine.stats().dropped_probation, 1u);
}

TEST_F(FilterEngineTest, SilentFlowResolvesNiceAndProbeFires) {
  sim::Packet p = packet_for(7);
  while (engine.tables().sft_size() == 0) engine.inspect(p);
  // Advance past the 0.08 s deadline: probe fires at the midpoint, the
  // decision timer resolves the silent probation as nice (too thin).
  runtime.advance_until(0.2);
  EXPECT_EQ(engine.tables().sft_size(), 0u);
  EXPECT_EQ(engine.tables().nft_size(), 1u);
  EXPECT_EQ(runtime.probes().probes_sent(), 1u);
  EXPECT_EQ(engine.stats().probes_issued, 1u);
  EXPECT_EQ(engine.stats().decided_nice, 1u);
  // Once nice, every packet forwards.
  EXPECT_EQ(engine.inspect(p), EngineVerdict::kForward);
}

TEST_F(FilterEngineTest, UnresponsiveFastFlowResolvesMalicious) {
  sim::Packet p = packet_for(9);
  while (engine.tables().sft_size() == 0) engine.inspect(p);
  // Keep the rate flat through both half-windows: 2 ms spacing.
  for (int i = 1; i <= 40; ++i) {
    runtime.advance_until(0.002 * i);
    engine.inspect(p);
  }
  runtime.advance_until(0.5);
  EXPECT_EQ(engine.stats().decided_malicious, 1u);
  EXPECT_EQ(engine.tables().pdt_size(), 1u);
  EXPECT_EQ(engine.inspect(p), EngineVerdict::kDropPdt);
}

TEST_F(FilterEngineTest, DeactivateFlushesAndCancelsTimers) {
  sim::Packet p = packet_for(3);
  while (engine.tables().sft_size() == 0) engine.inspect(p);
  engine.deactivate();
  EXPECT_EQ(engine.tables().resident(), 0u);
  // The cancelled probe/decision timers must not fire.
  runtime.advance_until(1.0);
  EXPECT_EQ(runtime.probes().probes_sent(), 0u);
  EXPECT_EQ(engine.stats().decided_nice + engine.stats().decided_malicious,
            0u);
}

TEST(FilterEngineRefresh, TimesOutWithoutKeepAlive) {
  MaficConfig cfg = test_config();
  cfg.refresh_timeout = 0.5;
  EngineRuntime rt(cfg, nullptr);
  rt.engine().activate({util::make_addr(172, 17, 0, 1)});
  ASSERT_TRUE(rt.engine().active());

  // Keep-alives hold the activation across the timeout horizon.
  rt.advance_until(0.4);
  rt.engine().refresh();
  rt.advance_until(0.8);
  EXPECT_TRUE(rt.engine().active());

  // No further refresh: the expiry timer deactivates ("Pushback
  // Continue? -> No") and flushes.
  rt.advance_until(2.0);
  EXPECT_FALSE(rt.engine().active());
  EXPECT_EQ(rt.engine().tables().resident(), 0u);
}

TEST(FilterEngineBatch, BatchedVerdictsMatchScalarExactly) {
  // Two engines, same seed and config, same packet sequence: one inspects
  // per packet, the other in bursts. Every verdict and every table
  // outcome must be identical — inspect_batch is an execution strategy,
  // not a semantic change.
  MaficConfig cfg = test_config();
  EngineRuntime scalar_rt(cfg, nullptr);
  EngineRuntime batch_rt(cfg, nullptr);
  const VictimSet victims{util::make_addr(172, 17, 0, 1)};
  scalar_rt.engine().activate(victims);
  batch_rt.engine().activate(victims);

  util::Rng traffic(99);
  std::vector<sim::Packet> burst(64);
  std::vector<EngineVerdict> scalar_v(64);
  std::vector<EngineVerdict> batch_v(64);

  double now = 0.0;
  for (int round = 0; round < 50; ++round) {
    for (auto& p : burst) {
      const auto flow = static_cast<std::uint32_t>(traffic.index(200));
      // A sprinkle of non-victim and control packets exercises the
      // batch early-outs.
      const std::uint8_t octet = traffic.bernoulli(0.1) ? 99 : 1;
      p = packet_for(flow, octet);
      if (traffic.bernoulli(0.05)) p.proto = sim::Protocol::kControl;
    }
    for (std::size_t i = 0; i < burst.size(); ++i) {
      scalar_v[i] = scalar_rt.engine().inspect(burst[i]);
    }
    batch_rt.engine().inspect_batch(burst.data(), burst.size(),
                                    batch_v.data());
    ASSERT_EQ(scalar_v, batch_v) << "round " << round;

    now += 0.005;
    scalar_rt.advance_until(now);
    batch_rt.advance_until(now);
  }

  EXPECT_EQ(scalar_rt.engine().tables().nft_size(),
            batch_rt.engine().tables().nft_size());
  EXPECT_EQ(scalar_rt.engine().tables().pdt_size(),
            batch_rt.engine().tables().pdt_size());
  EXPECT_EQ(scalar_rt.engine().stats().dropped_probation,
            batch_rt.engine().stats().dropped_probation);
}

TEST(FilterEngineVictimStats, TracksDecisionsPerVictim) {
  MaficConfig cfg = test_config();
  cfg.drop_probability = 1.0;  // deterministic admission
  EngineRuntime rt(cfg, nullptr);
  const util::Addr v1 = util::make_addr(172, 17, 0, 1);
  const util::Addr v2 = util::make_addr(172, 17, 0, 2);
  rt.engine().activate({v1, v2});

  // One silent flow toward each victim -> nice; one fast flow toward v2
  // only -> malicious.
  sim::Packet a = packet_for(1, 1);
  sim::Packet b = packet_for(2, 2);
  sim::Packet fast = packet_for(3, 2);
  rt.engine().inspect(a);
  rt.engine().inspect(b);
  rt.engine().inspect(fast);
  for (int i = 1; i <= 40; ++i) {
    rt.advance_until(0.002 * i);
    rt.engine().inspect(fast);
  }
  rt.advance_until(0.5);

  const auto& per_victim = rt.engine().victim_stats();
  ASSERT_TRUE(per_victim.contains(v1));
  ASSERT_TRUE(per_victim.contains(v2));
  EXPECT_EQ(per_victim.at(v1).decided_nice, 1u);
  EXPECT_EQ(per_victim.at(v1).decided_malicious, 0u);
  EXPECT_EQ(per_victim.at(v2).decided_nice, 1u);
  EXPECT_EQ(per_victim.at(v2).decided_malicious, 1u);
}

TEST(FilterEngineConfig, RejectsValuesThatBreakTheEngine) {
  // Each of these used to construct: a zero SFT capacity crashed the
  // first admission, a zero NFT or PDT capacity tripped an eviction
  // assert (in Release a zero PDT never blocked a flow), and a NaN Pd
  // never dropped, so nothing was admitted and the defense was off.
  const auto with = [](auto edit) {
    MaficConfig cfg = test_config();
    edit(cfg);
    return cfg;
  };
  const MaficConfig bad[] = {
      with([](MaficConfig& c) { c.sft_capacity = 0; }),
      with([](MaficConfig& c) { c.nft_capacity = 0; }),
      with([](MaficConfig& c) { c.pdt_capacity = 0; }),
      with([](MaficConfig& c) { c.drop_probability = std::nan(""); }),
      with([](MaficConfig& c) { c.drop_probability = -0.1; }),
      with([](MaficConfig& c) { c.drop_probability = 1.5; }),
      // A NaN or negative quota silently turned per-victim quotas off.
      with([](MaficConfig& c) { c.sft_victim_quota = std::nan(""); }),
      with([](MaficConfig& c) { c.sft_victim_quota = -0.5; }),
  };
  for (const MaficConfig& cfg : bad) {
    EXPECT_THROW(EngineRuntime(cfg, nullptr), std::invalid_argument);
  }
  const MaficConfig good[] = {
      with([](MaficConfig& c) { c.drop_probability = 0.0; }),
      with([](MaficConfig& c) { c.drop_probability = 1.0; }),
      with([](MaficConfig& c) {
        c.sft_capacity = c.nft_capacity = c.pdt_capacity = 1;
      }),
      with([](MaficConfig& c) { c.sft_victim_quota = 0.0; }),
      with([](MaficConfig& c) { c.sft_victim_quota = 0.25; }),
      with([](MaficConfig& c) { c.sft_victim_quota = 3.0; }),
  };
  for (const MaficConfig& cfg : good) {
    EXPECT_NO_THROW(EngineRuntime(cfg, nullptr));
  }
}

}  // namespace
}  // namespace mafic::core
