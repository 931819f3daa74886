#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baseline/aggregate_limiter.hpp"
#include "baseline/proportional_dropper.hpp"
#include "sim/simulator.hpp"

namespace mafic::baseline {
namespace {

sim::PacketPtr victim_packet(util::Addr dst, std::uint32_t bytes = 1000) {
  auto p = std::make_unique<sim::Packet>();
  p->label = sim::FlowLabel{util::make_addr(172, 16, 0, 1), dst, 1000, 80};
  p->size_bytes = bytes;
  return p;
}

constexpr util::Addr kVictim = util::make_addr(172, 17, 0, 1);
constexpr util::Addr kOther = util::make_addr(172, 17, 0, 2);

TEST(ProportionalDropper, InactiveForwardsAll) {
  ProportionalDropper d(0.9, 1);
  int forwarded = 0;
  class Count final : public sim::Connector {
   public:
    explicit Count(int* n) : n_(n) {}
    void recv(sim::PacketPtr) override { ++*n_; }
    int* n_;
  } sink(&forwarded);
  d.set_target(&sink);
  for (int i = 0; i < 100; ++i) d.recv(victim_packet(kVictim));
  EXPECT_EQ(forwarded, 100);
  EXPECT_EQ(d.stats().offered, 0u);
}

TEST(ProportionalDropper, FlowBlindness) {
  // The defining weakness vs MAFIC: it keeps dropping forever, from every
  // flow alike, with no classification.
  ProportionalDropper d(0.9, 3);
  d.activate({kVictim});
  int drops = 0;
  d.set_drop_handler(
      [&](const sim::Packet&, sim::DropReason, sim::NodeId) { ++drops; });
  // Distinct uids, as a PacketFactory hands out: the coin is per packet.
  std::uint64_t uid = 0;
  const auto next = [&] {
    auto p = victim_packet(kVictim);
    p->uid = ++uid;
    return p;
  };
  for (int i = 0; i < 1000; ++i) d.recv(next());
  const int early = drops;
  for (int i = 0; i < 1000; ++i) d.recv(next());
  // Still dropping at the same rate much later.
  EXPECT_NEAR(double(drops - early), double(early), 100.0);
}

TEST(ProportionalDropper, OtherDestinationsUntouched) {
  ProportionalDropper d(0.9, 3);
  d.activate({kVictim});
  int drops = 0;
  d.set_drop_handler(
      [&](const sim::Packet&, sim::DropReason, sim::NodeId) { ++drops; });
  for (int i = 0; i < 1000; ++i) d.recv(victim_packet(kOther));
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(d.stats().offered, 0u);
}

TEST(ProportionalDropper, DeactivateStopsDropping) {
  ProportionalDropper d(0.9, 3);
  d.activate({kVictim});
  d.deactivate();
  int drops = 0;
  d.set_drop_handler(
      [&](const sim::Packet&, sim::DropReason, sim::NodeId) { ++drops; });
  for (int i = 0; i < 1000; ++i) d.recv(victim_packet(kVictim));
  EXPECT_EQ(drops, 0);
}

// Fate of every packet pushed through a dropper: uid -> dropped?
std::map<std::uint64_t, bool> run_fates(ProportionalDropper& d,
                                        std::vector<sim::PacketPtr> pkts) {
  std::map<std::uint64_t, bool> fate;
  class Sink final : public sim::Connector {
   public:
    explicit Sink(std::map<std::uint64_t, bool>* f) : f_(f) {}
    void recv(sim::PacketPtr p) override { (*f_)[p->uid] = false; }
    std::map<std::uint64_t, bool>* f_;
  } sink(&fate);
  d.set_target(&sink);
  d.set_drop_handler([&](const sim::Packet& p, sim::DropReason,
                         sim::NodeId) { fate[p.uid] = true; });
  for (auto& p : pkts) d.recv(std::move(p));
  return fate;
}

std::vector<sim::PacketPtr> coin_workload(bool reversed = false) {
  std::vector<sim::PacketPtr> pkts;
  for (std::uint32_t f = 0; f < 200; ++f) {
    auto p = victim_packet(kVictim);
    p->label.src = util::make_addr(172, 16, 0, std::uint8_t(f % 250));
    p->label.sport = std::uint16_t(1024 + f);
    p->uid = 100000 + f;
    pkts.push_back(std::move(p));
  }
  if (reversed) std::reverse(pkts.begin(), pkts.end());
  return pkts;
}

TEST(ProportionalDropper, PacketHashCoinIsOrderInvariant) {
  // The stateless coin (the Pd coin FilterEngine uses) must give each
  // packet the same fate in arrival and in reversed inspection order,
  // which would not hold for a stateful generator.
  const auto fresh = [] {
    ProportionalDropper d(0.7, 0xfeedULL);
    d.activate({kVictim});
    return d;
  };
  ProportionalDropper scalar = fresh();
  ProportionalDropper reversed = fresh();
  const auto fate_scalar = run_fates(scalar, coin_workload());
  const auto fate_rev = run_fates(reversed, coin_workload(true));
  ASSERT_EQ(fate_scalar.size(), 200u);
  EXPECT_EQ(fate_scalar, fate_rev);
  EXPECT_EQ(scalar.stats().offered, 200u);
  EXPECT_EQ(scalar.stats().dropped, reversed.stats().dropped);
  EXPECT_EQ(scalar.stats().forwarded, reversed.stats().forwarded);

  // Golden pin at (pd=0.7, seed=0xfeed): exact drop count, so the coin
  // construction cannot drift silently.
  EXPECT_EQ(scalar.stats().dropped, 148u);
}

TEST(ProportionalDropper, PacketHashCoinHitsConfiguredRate) {
  ProportionalDropper d(0.7, 0x5eedULL);
  d.activate({kVictim});
  int drops = 0;
  d.set_drop_handler([&](const sim::Packet&, sim::DropReason r,
                         sim::NodeId) {
    EXPECT_EQ(r, sim::DropReason::kDefenseBaseline);
    ++drops;
  });
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto p = victim_packet(kVictim);
    p->uid = std::uint64_t(i);
    p->label.sport = std::uint16_t(i & 0xffff);
    d.recv(std::move(p));
  }
  EXPECT_NEAR(double(drops) / n, 0.7, 0.02);
  EXPECT_EQ(d.stats().offered, std::uint64_t(n));
  EXPECT_EQ(d.stats().dropped + d.stats().forwarded, std::uint64_t(n));
  // Degenerate probabilities stay exact.
  ProportionalDropper never(0.0, 1);
  never.activate({kVictim});
  ProportionalDropper always(1.0, 1);
  always.activate({kVictim});
  const auto none = run_fates(never, coin_workload());
  const auto all = run_fates(always, coin_workload());
  for (const auto& [uid, dropped] : none) EXPECT_FALSE(dropped) << uid;
  for (const auto& [uid, dropped] : all) EXPECT_TRUE(dropped) << uid;
}

TEST(AggregateLimiter, EnforcesRateLimit) {
  sim::Simulator sim;
  AggregateLimiter::Config cfg;
  cfg.limit_bps = 1e6;  // 125 kB/s
  cfg.burst_bytes = 2000;
  AggregateLimiter lim(&sim, cfg);
  lim.activate({kVictim});

  std::uint64_t forwarded_bytes = 0;
  class Count final : public sim::Connector {
   public:
    explicit Count(std::uint64_t* b) : b_(b) {}
    void recv(sim::PacketPtr p) override { *b_ += p->size_bytes; }
    std::uint64_t* b_;
  } sink(&forwarded_bytes);
  lim.set_target(&sink);

  // Offer 10 Mb/s for 1 second via scheduled arrivals.
  for (int i = 0; i < 1250; ++i) {
    sim.schedule_at(i * 0.0008, [&lim] {
      lim.recv(victim_packet(kVictim, 1000));
    });
  }
  sim.run();
  // Forwarded ~ limit * duration = 125 kB (+ burst).
  EXPECT_NEAR(double(forwarded_bytes), 125e3, 15e3);
  EXPECT_GT(lim.stats().dropped, 1000u);
}

TEST(AggregateLimiter, UnderLimitTrafficPasses) {
  sim::Simulator sim;
  AggregateLimiter::Config cfg;
  cfg.limit_bps = 10e6;
  cfg.burst_bytes = 4000;
  AggregateLimiter lim(&sim, cfg);
  lim.activate({kVictim});
  std::uint64_t forwarded = 0;
  class Count final : public sim::Connector {
   public:
    explicit Count(std::uint64_t* n) : n_(n) {}
    void recv(sim::PacketPtr) override { ++*n_; }
    std::uint64_t* n_;
  } sink(&forwarded);
  lim.set_target(&sink);
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(i * 0.002, [&lim] {  // 4 Mb/s offered
      lim.recv(victim_packet(kVictim, 1000));
    });
  }
  sim.run();
  EXPECT_EQ(forwarded, 500u);
  EXPECT_EQ(lim.stats().dropped, 0u);
}

TEST(AggregateLimiter, BurstAllowsShortSpikes) {
  sim::Simulator sim;
  AggregateLimiter::Config cfg;
  cfg.limit_bps = 8000;  // 1 kB/s refill
  cfg.burst_bytes = 5000;
  AggregateLimiter lim(&sim, cfg);
  lim.activate({kVictim});
  std::uint64_t forwarded = 0;
  class Count final : public sim::Connector {
   public:
    explicit Count(std::uint64_t* n) : n_(n) {}
    void recv(sim::PacketPtr) override { ++*n_; }
    std::uint64_t* n_;
  } sink(&forwarded);
  lim.set_target(&sink);
  for (int i = 0; i < 10; ++i) lim.recv(victim_packet(kVictim, 1000));
  EXPECT_EQ(forwarded, 5u);  // exactly the bucket depth
}

}  // namespace
}  // namespace mafic::baseline
