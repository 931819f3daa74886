#include "core/mafic_filter.hpp"

#include <gtest/gtest.h>

#include "attack/zombie.hpp"
#include "sim/network.hpp"
#include "topology/topology.hpp"
#include "transport/cbr.hpp"
#include "transport/tcp.hpp"
#include "transport/tcp_sink.hpp"
#include "transport/udp.hpp"

namespace mafic::core {
namespace {

/// Fixture: two source hosts behind an ATR router, a victim behind a second
/// router. A MaficFilter guards each source's uplink.
class MaficFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net = std::make_unique<sim::Network>(&sim);
    src_a = net->add_host(util::make_addr(172, 16, 0, 1));
    src_b = net->add_host(util::make_addr(172, 16, 0, 2));
    atr = net->add_router(util::make_addr(10, 0, 0, 1));
    last_hop = net->add_router(util::make_addr(10, 0, 0, 2));
    victim = net->add_host(util::make_addr(172, 17, 0, 1));

    sim::SimplexLink::Config fast;
    fast.bandwidth_bps = 100e6;
    fast.delay_s = 0.005;
    auto [a_up_fwd, a_up_bwd] = net->add_duplex(src_a->id(), atr->id(), fast);
    (void)a_up_bwd;
    auto [b_up_fwd, b_up_bwd] = net->add_duplex(src_b->id(), atr->id(), fast);
    (void)b_up_bwd;
    net->add_duplex(atr->id(), last_hop->id(), fast);
    net->add_duplex(last_hop->id(), victim->id(), fast);
    net->build_routes();

    validator.add_subnet({util::make_addr(172, 16, 0, 0), 16});
    validator.add_subnet({util::make_addr(172, 17, 0, 0), 16});
    validator.add_subnet({util::make_addr(10, 0, 0, 0), 8});
    validator.add_host(src_a->addr());
    validator.add_host(src_b->addr());
    validator.add_host(victim->addr());
    policy = std::make_unique<AddressPolicy>(&validator);

    cfg.default_rtt = 0.1;  // 0.2 s probation windows: roomy for tests
    cfg.drop_probability = 0.9;

    auto make_filter = [&](sim::SimplexLink* uplink) {
      auto f = std::make_unique<MaficFilter>(&sim, &factory, atr, cfg,
                                             policy.get());
      MaficFilter* raw = f.get();
      uplink->add_head_filter(std::move(f));
      return raw;
    };
    filter_a = make_filter(a_up_fwd);
    filter_b = make_filter(b_up_fwd);
  }

  void activate_all() {
    const VictimSet victims{victim->addr()};
    filter_a->activate(victims);
    filter_b->activate(victims);
  }

  sim::Simulator sim;
  sim::PacketFactory factory;
  std::unique_ptr<sim::Network> net;
  sim::Node *src_a{}, *src_b{}, *atr{}, *last_hop{}, *victim{};
  util::AddressValidator validator;
  std::unique_ptr<AddressPolicy> policy;
  MaficConfig cfg;
  MaficFilter* filter_a{};
  MaficFilter* filter_b{};
};

TEST_F(MaficFilterTest, InactiveFiltersForwardEverything) {
  transport::UdpSink sink(&sim, &factory, victim, 80);
  transport::CbrSource src(&sim, &factory, src_a, 5000,
                           {.rate_bps = 1e6, .packet_bytes = 500,
                            .jitter_fraction = 0.0},
                           util::Rng(1));
  src.connect(victim->addr(), 80);
  src.start();
  sim.run_until(1.0);
  EXPECT_EQ(filter_a->engine().stats().offered, 0u);
  EXPECT_GT(sink.packets_received(), 200u);
}

TEST_F(MaficFilterTest, ActiveFilterIgnoresOtherDestinations) {
  activate_all();
  // Traffic from A to B does not target the victim.
  transport::UdpSink sink(&sim, &factory, src_b, 80);
  transport::CbrSource src(&sim, &factory, src_a, 5000,
                           {.rate_bps = 1e6, .packet_bytes = 500,
                            .jitter_fraction = 0.0},
                           util::Rng(1));
  src.connect(src_b->addr(), 80);
  src.start();
  sim.run_until(0.5);
  EXPECT_EQ(filter_a->engine().stats().offered, 0u);
  EXPECT_GT(sink.packets_received(), 100u);
}

TEST_F(MaficFilterTest, IllegalSourceGoesStraightToPdt) {
  activate_all();
  auto p = factory.make();
  p->label = sim::FlowLabel{util::make_addr(203, 0, 113, 5), victim->addr(),
                            5000, 80};
  p->proto = sim::Protocol::kTcp;
  p->size_bytes = 500;
  src_a->send(std::move(p));
  sim.run();
  EXPECT_EQ(filter_a->engine().stats().screened_sources, 1u);
  EXPECT_EQ(filter_a->engine().stats().dropped_pdt, 1u);
  EXPECT_EQ(filter_a->engine().tables().pdt_size(), 1u);
  EXPECT_EQ(filter_a->engine().tables().stats().direct_pdt, 1u);
}

TEST_F(MaficFilterTest, UnreachableSourceGoesStraightToPdt) {
  activate_all();
  auto p = factory.make();
  // 172.16.200.1 is inside a registered subnet but never allocated.
  p->label = sim::FlowLabel{util::make_addr(172, 16, 200, 1),
                            victim->addr(), 5000, 80};
  p->proto = sim::Protocol::kTcp;
  p->size_bytes = 500;
  src_a->send(std::move(p));
  sim.run();
  EXPECT_EQ(filter_a->engine().stats().screened_sources, 1u);
}

TEST_F(MaficFilterTest, ScreeningCanBeDisabled) {
  cfg.address_screening = false;
  auto f = std::make_unique<MaficFilter>(&sim, &factory, atr, cfg,
                                         policy.get());
  MaficFilter* raw = f.get();
  raw->activate({victim->addr()});
  auto p = factory.make();
  p->label = sim::FlowLabel{util::make_addr(203, 0, 113, 5), victim->addr(),
                            5000, 80};
  p->size_bytes = 100;
  // Feed directly: inspect is protected, so route through recv().
  raw->set_target(nullptr);
  raw->recv(std::move(p));
  EXPECT_EQ(raw->engine().stats().screened_sources, 0u);
}

TEST_F(MaficFilterTest, UnresponsiveFlowEndsInPdt) {
  transport::UdpSink sink(&sim, &factory, victim, 80);
  attack::Flooder::Config zc;
  zc.rate_bps = 2e6;
  zc.packet_bytes = 500;  // 500 pkt/s
  attack::Flooder zombie(&sim, &factory, src_a, 5000, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(0.5);
  const auto before = sink.packets_received();
  activate_all();
  sim.run_until(1.5);

  EXPECT_TRUE(filter_a->engine().tables().in_pdt(
      sim::hash_label(zombie.wire_label())));
  EXPECT_EQ(filter_a->engine().stats().decided_malicious, 1u);
  EXPECT_EQ(filter_a->engine().stats().decided_nice, 0u);
  // After classification (+0.2 s) every packet is dropped: at most the
  // probation leak got through.
  const auto after = sink.packets_received() - before;
  EXPECT_LT(after, 60u);  // ~500/s for 1 s would be 500 unfiltered
  EXPECT_GT(filter_a->engine().stats().dropped_pdt, 300u);
}

TEST_F(MaficFilterTest, ResponsiveTcpFlowEndsInNftAndRecovers) {
  transport::TcpSink sink(&sim, &factory, victim, 80);
  transport::TcpSender sender(&sim, &factory, src_a, 5000);
  sender.connect(victim->addr(), 80);
  sink.connect(src_a->addr(), 5000);
  sender.start();
  sim.run_until(1.0);
  activate_all();
  sim.run_until(2.0);

  const auto key = sim::hash_label(sender.label());
  EXPECT_TRUE(filter_a->engine().tables().in_nft(key));
  EXPECT_EQ(filter_a->engine().stats().decided_malicious, 0u);

  // NFT flows are never dropped again: goodput resumes.
  const auto delivered_at_2 = sink.stats().unique_delivered;
  sim.run_until(3.0);
  EXPECT_GT(sink.stats().unique_delivered, delivered_at_2 + 100);
}

TEST_F(MaficFilterTest, ProbeIsSentForSuspiciousFlows) {
  attack::Flooder::Config zc;
  zc.rate_bps = 2e6;
  zc.packet_bytes = 500;
  attack::Flooder zombie(&sim, &factory, src_a, 5000, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(0.2);
  activate_all();
  sim.run_until(1.0);
  EXPECT_EQ(filter_a->engine().stats().probes_issued, 1u);
  EXPECT_EQ(filter_a->prober().probe_packets_sent(), cfg.probe_dup_acks);
  // The zombie received and ignored the probe duplicate ACKs.
  EXPECT_GE(zombie.feedback_ignored(), std::uint64_t(cfg.probe_dup_acks));
}

TEST_F(MaficFilterTest, ThinFlowGetsBenefitOfDoubt) {
  transport::UdpSink sink(&sim, &factory, victim, 80);
  transport::CbrSource trickle(&sim, &factory, src_a, 5000,
                               {.rate_bps = 20e3, .packet_bytes = 500,
                                .jitter_fraction = 0.0},
                               util::Rng(3));  // 5 pkt/s: ~0.5 per window half
  trickle.connect(victim->addr(), 80);
  trickle.start();
  sim.run_until(0.5);
  activate_all();
  sim.run_until(3.0);
  const auto key = sim::hash_label(trickle.label());
  EXPECT_TRUE(filter_a->engine().tables().in_nft(key));
}

TEST_F(MaficFilterTest, DropAllInSftModeDropsDeterministically) {
  cfg.drop_all_in_sft = true;
  auto f = std::make_unique<MaficFilter>(&sim, &factory, atr, cfg,
                                         policy.get());
  MaficFilter* raw = f.get();
  net->find_link(src_b->id(), atr->id())->add_head_filter(std::move(f));
  raw->activate({victim->addr()});

  transport::UdpSink sink(&sim, &factory, victim, 80);
  attack::Flooder::Config zc;
  zc.rate_bps = 2e6;
  zc.packet_bytes = 500;
  attack::Flooder zombie(&sim, &factory, src_b, 5001, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(1.0);
  // Once in SFT, everything is dropped; only pre-admission packets could
  // pass (about (1-Pd)/Pd of one packet on average).
  EXPECT_LT(sink.packets_received(), 5u);
}

TEST_F(MaficFilterTest, DeactivateFlushesAndForwards) {
  activate_all();
  attack::Flooder::Config zc;
  zc.rate_bps = 2e6;
  zc.packet_bytes = 500;
  attack::Flooder zombie(&sim, &factory, src_a, 5000, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(1.0);
  EXPECT_GT(filter_a->engine().tables().pdt_size(), 0u);

  filter_a->deactivate();
  EXPECT_FALSE(filter_a->active());
  EXPECT_EQ(filter_a->engine().tables().pdt_size(), 0u);
  EXPECT_EQ(filter_a->engine().tables().sft_size(), 0u);

  transport::UdpSink sink(&sim, &factory, victim, 80);
  const auto dropped = filter_a->engine().stats().dropped_pdt;
  sim.run_until(2.0);
  EXPECT_EQ(filter_a->engine().stats().dropped_pdt, dropped);  // no more drops
  EXPECT_GT(sink.packets_received(), 300u);           // flood passes again
}

TEST_F(MaficFilterTest, RefreshTimeoutSelfDeactivates) {
  cfg.refresh_timeout = 0.5;
  auto f = std::make_unique<MaficFilter>(&sim, &factory, atr, cfg,
                                         policy.get());
  MaficFilter* raw = f.get();
  net->find_link(src_b->id(), atr->id())->add_head_filter(std::move(f));
  raw->activate({victim->addr()});
  EXPECT_TRUE(raw->active());
  sim.run_until(0.6);  // no refresh arrives
  EXPECT_FALSE(raw->active());
}

TEST_F(MaficFilterTest, RefreshExtendsActivation) {
  cfg.refresh_timeout = 0.5;
  auto f = std::make_unique<MaficFilter>(&sim, &factory, atr, cfg,
                                         policy.get());
  MaficFilter* raw = f.get();
  net->find_link(src_b->id(), atr->id())->add_head_filter(std::move(f));
  raw->activate({victim->addr()});
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_at(0.3 * i, [raw] { raw->refresh(); });
  }
  sim.run_until(1.4);
  EXPECT_TRUE(raw->active());
  sim.run_until(2.5);  // refreshes stopped at 1.2 -> expires at 1.7
  EXPECT_FALSE(raw->active());
}

TEST_F(MaficFilterTest, OfferedCallbackSeesVictimBoundPackets) {
  activate_all();
  std::uint64_t offered = 0;
  filter_a->engine().set_offered_callback(
      [&](const sim::Packet&) { ++offered; });
  attack::Flooder::Config zc;
  zc.rate_bps = 1e6;
  zc.packet_bytes = 500;
  attack::Flooder zombie(&sim, &factory, src_a, 5000, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(0.5);
  EXPECT_EQ(offered, filter_a->engine().stats().offered);
  EXPECT_GT(offered, 50u);
}

TEST_F(MaficFilterTest, ClassificationCallbackReportsOutcome) {
  activate_all();
  std::vector<TableKind> outcomes;
  filter_a->engine().set_classification_callback(
      [&](const SftEntry& e, TableKind kind) {
        EXPECT_GT(e.baseline_count, 0u);
        outcomes.push_back(kind);
      });
  attack::Flooder::Config zc;
  zc.rate_bps = 2e6;
  zc.packet_bytes = 500;
  attack::Flooder zombie(&sim, &factory, src_a, 5000, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(1.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], TableKind::kPermanentDrop);
}

TEST_F(MaficFilterTest, ProbationDropRateTracksPd) {
  // With probing disabled and an unresponsive source, drops during the
  // window should match Pd statistically.
  cfg.probe_enabled = false;
  cfg.default_rtt = 0.1;  // window 0.2 s
  auto f = std::make_unique<MaficFilter>(&sim, &factory, atr, cfg,
                                         policy.get());
  MaficFilter* raw = f.get();
  net->find_link(src_b->id(), atr->id())->add_head_filter(std::move(f));
  raw->activate({victim->addr()});

  attack::Flooder::Config zc;
  zc.rate_bps = 20e6;  // 5000 pkt/s -> ~1000 packets in the window
  zc.packet_bytes = 500;
  attack::Flooder zombie(&sim, &factory, src_b, 5001, zc, util::Rng(2));
  zombie.connect(victim->addr(), 80);
  zombie.start();
  sim.run_until(0.19);  // stay inside the probation window
  const double offered = double(raw->engine().stats().offered);
  const double dropped = double(raw->engine().stats().dropped_probation);
  ASSERT_GT(offered, 500.0);
  EXPECT_NEAR(dropped / offered, 0.9, 0.05);
}

}  // namespace
}  // namespace mafic::core
