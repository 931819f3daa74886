// Tests for the NFT revalidation extension
// (MaficConfig::nft_revalidation_interval, the paper's future-work
// direction; ablation A6 in docs/BENCHMARKS.md's figure map) and the
// probe-evading adaptive attacker it defends against.

#include <gtest/gtest.h>

#include "core/flow_tables.hpp"
#include "scenario/experiment.hpp"

namespace mafic {
namespace {

sim::FlowLabel label(std::uint32_t i) {
  return {util::make_addr(10, 0, 0, 1) + i, util::make_addr(172, 16, 0, 1),
          std::uint16_t(1000 + i), 80};
}

TEST(NftRevalidation, DisabledMeansPermanentNft) {
  core::MaficConfig cfg;  // nft_revalidation_interval = 0
  core::FlowTables tables(cfg);
  tables.admit_sft(1, label(1), 0.0, 0.2);
  tables.resolve(1, core::TableKind::kNice, /*now=*/0.2);
  EXPECT_TRUE(std::isinf(tables.nft_expiry(1)));
  EXPECT_EQ(tables.classify(1, 1e9), core::TableKind::kNice);
}

TEST(NftRevalidation, EntryExpiresAfterInterval) {
  core::MaficConfig cfg;
  cfg.nft_revalidation_interval = 1.0;
  core::FlowTables tables(cfg);
  tables.admit_sft(1, label(1), 0.0, 0.2);
  tables.resolve(1, core::TableKind::kNice, /*now=*/0.2);
  EXPECT_DOUBLE_EQ(tables.nft_expiry(1), 1.2);
  EXPECT_EQ(tables.classify(1, 1.0), core::TableKind::kNice);
  EXPECT_EQ(tables.classify(1, 1.3), core::TableKind::kNone);  // expired
  EXPECT_FALSE(tables.in_nft(1));
  EXPECT_EQ(tables.stats().nft_expirations, 1u);
}

TEST(NftRevalidation, ExpiredFlowCanBeReadmitted) {
  core::MaficConfig cfg;
  cfg.nft_revalidation_interval = 1.0;
  core::FlowTables tables(cfg);
  tables.admit_sft(1, label(1), 0.0, 0.2);
  tables.resolve(1, core::TableKind::kNice, 0.2);
  ASSERT_EQ(tables.classify(1, 2.0), core::TableKind::kNone);
  EXPECT_NE(tables.admit_sft(1, label(1), 2.0, 0.2), nullptr);
  tables.resolve(1, core::TableKind::kPermanentDrop, 2.2);
  EXPECT_EQ(tables.classify(1, 2.3), core::TableKind::kPermanentDrop);
}

TEST(NftRevalidation, PdtNeverExpires) {
  core::MaficConfig cfg;
  cfg.nft_revalidation_interval = 0.5;
  core::FlowTables tables(cfg);
  tables.add_pdt_direct(7);
  EXPECT_EQ(tables.classify(7, 1e9), core::TableKind::kPermanentDrop);
}

TEST(ProbeEvasion, ZombiePausesOnThreeDupAcks) {
  sim::Simulator sim;
  sim::PacketFactory factory;
  sim::Network net(&sim);
  sim::Node* host = net.add_host(util::make_addr(172, 16, 0, 1));
  sim::Node* peer = net.add_host(util::make_addr(172, 17, 0, 1));
  net.add_duplex(host->id(), peer->id(), {});
  net.build_routes();

  attack::Flooder::Config cfg;
  cfg.probe_evasion = true;
  cfg.evasion_pause_s = 0.5;
  cfg.rate_bps = 4e6;
  attack::Flooder z(&sim, &factory, host, 5000, cfg, util::Rng(1));
  z.connect(peer->addr(), 80);
  z.start();
  sim.run_until(0.2);
  ASSERT_TRUE(z.running());

  for (int i = 0; i < 3; ++i) {
    auto probe = factory.make();
    probe->label = z.label().reversed();
    probe->proto = sim::Protocol::kTcp;
    probe->flags = sim::tcp_flags::kAck;
    probe->probe = true;
    z.recv(std::move(probe));
  }
  EXPECT_FALSE(z.running());
  EXPECT_EQ(z.evasion_pauses(), 1u);
  const auto sent = z.packets_sent();
  sim.run_until(0.4);  // still paused
  EXPECT_EQ(z.packets_sent(), sent);
  sim.run_until(1.0);  // resumed
  EXPECT_TRUE(z.running());
  EXPECT_GT(z.packets_sent(), sent);
}

TEST(ProbeEvasion, NonEvadingZombieIgnoresProbes) {
  sim::Simulator sim;
  sim::PacketFactory factory;
  sim::Network net(&sim);
  sim::Node* host = net.add_host(util::make_addr(172, 16, 0, 1));
  sim::Node* peer = net.add_host(util::make_addr(172, 17, 0, 1));
  net.add_duplex(host->id(), peer->id(), {});
  net.build_routes();

  attack::Flooder::Config cfg;  // probe_evasion = false
  attack::Flooder z(&sim, &factory, host, 5000, cfg, util::Rng(1));
  z.connect(peer->addr(), 80);
  z.start();
  for (int i = 0; i < 10; ++i) {
    auto probe = factory.make();
    probe->proto = sim::Protocol::kTcp;
    probe->flags = sim::tcp_flags::kAck;
    z.recv(std::move(probe));
  }
  EXPECT_TRUE(z.running());
  EXPECT_EQ(z.evasion_pauses(), 0u);
}

scenario::ExperimentConfig evader_config() {
  scenario::ExperimentConfig cfg;
  cfg.total_flows = 20;
  cfg.router_count = 10;
  cfg.seed = 5;
  cfg.end_time = 12.0;
  cfg.attack_probe_evasion = true;
  cfg.spoofing.legitimate_weight = 0.0;
  cfg.spoofing.genuine_weight = 1.0;  // evader must receive the probe
  return cfg;
}

TEST(ProbeEvasion, EvaderDefeatsPaperFaithfulMafic) {
  scenario::Experiment exp(evader_config());
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // The evader passes probation and floods from the permanent NFT.
  EXPECT_LT(r.metrics.alpha, 0.3);
  EXPECT_GT(r.metrics.theta_n, 0.7);
}

TEST(ProbeEvasion, RevalidationThrottlesTheEvader) {
  auto cfg = evader_config();
  scenario::Experiment baseline(cfg);
  const auto without = baseline.run();

  cfg.mafic.nft_revalidation_interval = 1.0;
  scenario::Experiment guarded(cfg);
  const auto with = guarded.run();

  ASSERT_TRUE(with.metrics.triggered);
  // More of the attack is caught, and the evader's delivered volume drops.
  EXPECT_GT(with.metrics.alpha, without.metrics.alpha);
  const double tail_without =
      without.victim_offered_bytes.rate_between(8.0, 11.0);
  const double tail_with = with.victim_offered_bytes.rate_between(8.0, 11.0);
  EXPECT_LT(tail_with, tail_without);
}

TEST(ProbeEvasion, SpoofingEvaderNeverSeesProbe) {
  auto cfg = evader_config();
  cfg.spoofing.genuine_weight = 0.0;
  cfg.spoofing.legitimate_weight = 1.0;  // probes go to innocent hosts
  scenario::Experiment exp(cfg);
  const auto r = exp.run();
  ASSERT_TRUE(r.metrics.triggered);
  // Unable to observe the probe, the zombie keeps flooding and is caught.
  EXPECT_GT(r.metrics.alpha, 0.97);
  for (auto* z : exp.zombies()) {
    EXPECT_EQ(z->evasion_pauses(), 0u);
  }
}

TEST(ProbeEvasion, RevalidationCostsLegitimateLoss) {
  // The trade-off: re-probing legitimate flows costs Lr even without any
  // attacker adaptation.
  scenario::ExperimentConfig cfg;
  cfg.total_flows = 20;
  cfg.router_count = 10;
  cfg.seed = 5;
  cfg.end_time = 12.0;
  scenario::Experiment plain(cfg);
  const auto without = plain.run();

  cfg.mafic.nft_revalidation_interval = 1.0;
  scenario::Experiment guarded(cfg);
  const auto with = guarded.run();
  EXPECT_GT(with.metrics.lr, without.metrics.lr);
}

}  // namespace
}  // namespace mafic
