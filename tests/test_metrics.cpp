#include <gtest/gtest.h>

#include <cmath>

#include "metrics/ledger.hpp"
#include "metrics/report.hpp"

namespace mafic::metrics {
namespace {

sim::Packet packet_for(sim::FlowId flow, std::uint32_t bytes = 1000,
                       bool probe = false) {
  sim::Packet p;
  p.flow_id = flow;
  p.size_bytes = bytes;
  p.probe = probe;
  return p;
}

FlowGroundTruth truth(sim::FlowId id, bool malicious, bool tcp = true) {
  FlowGroundTruth t;
  t.id = id;
  t.malicious = malicious;
  t.tcp = tcp;
  return t;
}

TEST(Ledger, PhaseSplitAtTriggerTime) {
  PacketLedger ledger;
  ledger.register_flow(truth(1, false));
  ledger.set_trigger_time(5.0);
  const auto p = packet_for(1);
  ledger.on_defense_offered(p, 4.0);
  ledger.on_defense_offered(p, 6.0);
  ledger.on_defense_offered(p, 7.0);
  const auto* rec = ledger.flow(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->pre.offered_at_defense, 1u);
  EXPECT_EQ(rec->post.offered_at_defense, 2u);
}

TEST(Ledger, UntriggeredEverythingIsPre) {
  PacketLedger ledger;
  ledger.register_flow(truth(1, false));
  EXPECT_FALSE(ledger.triggered());
  ledger.on_defense_offered(packet_for(1), 100.0);
  EXPECT_EQ(ledger.flow(1)->pre.offered_at_defense, 1u);
}

TEST(Ledger, DropAttributionByReason) {
  PacketLedger ledger;
  ledger.register_flow(truth(1, true));
  ledger.set_trigger_time(0.0);
  const auto p = packet_for(1);
  ledger.on_drop(p, sim::DropReason::kDefenseProbe, 0, 1.0);
  ledger.on_drop(p, sim::DropReason::kDefensePdt, 0, 1.0);
  ledger.on_drop(p, sim::DropReason::kDefensePdt, 0, 1.0);
  ledger.on_drop(p, sim::DropReason::kDefenseBaseline, 0, 1.0);
  ledger.on_drop(p, sim::DropReason::kQueueOverflow, 0, 1.0);
  ledger.on_drop(p, sim::DropReason::kNoRoute, 0, 1.0);  // unattributed
  const auto& post = ledger.flow(1)->post;
  EXPECT_EQ(post.dropped_probation, 1u);
  EXPECT_EQ(post.dropped_pdt, 2u);
  EXPECT_EQ(post.dropped_baseline, 1u);
  EXPECT_EQ(post.queue_drops, 1u);
  EXPECT_EQ(post.defense_drops(), 4u);
}

TEST(Ledger, ProbePacketsAreOverheadNotFlowTraffic) {
  PacketLedger ledger;
  ledger.register_flow(truth(1, false));
  ledger.on_drop(packet_for(1, 40, /*probe=*/true),
                 sim::DropReason::kQueueOverflow, 0, 1.0);
  EXPECT_EQ(ledger.flow(1)->pre.queue_drops, 0u);
}

TEST(Ledger, UnknownFlowDropsAreNotAttributed) {
  PacketLedger ledger;
  ledger.register_flow(truth(1, false));
  ledger.on_drop(packet_for(42), sim::DropReason::kQueueOverflow, 0, 1.0);
  EXPECT_EQ(ledger.flow(42), nullptr);
  EXPECT_EQ(ledger.flow(1)->pre.queue_drops, 0u);
}

TEST(Ledger, VictimSeriesAccumulate) {
  PacketLedger ledger(0.1);
  ledger.register_flow(truth(1, false));
  ledger.on_victim_offered(packet_for(1, 500), 0.25);
  ledger.on_victim_offered(packet_for(1, 500), 0.26);
  ledger.on_victim_delivered(packet_for(1, 500), 0.30);
  EXPECT_DOUBLE_EQ(ledger.victim_offered_bytes().total(), 1000.0);
  EXPECT_EQ(ledger.flow(1)->pre.victim_arrivals, 1u);
}

TEST(Report, UntriggeredYieldsNaNs) {
  PacketLedger ledger;
  const Metrics m = compute_metrics(ledger);
  EXPECT_FALSE(m.triggered);
  EXPECT_TRUE(std::isnan(m.alpha));
  EXPECT_NE(format_metrics(m).find("never triggered"), std::string::npos);
}

class ReportFormulas : public ::testing::Test {
 protected:
  void SetUp() override {
    ledger.register_flow(truth(1, true, false));   // malicious
    ledger.register_flow(truth(2, false, true));   // legit TCP
    ledger.register_flow(truth(3, false, false));  // legit UDP
    ledger.set_trigger_time(10.0);

    // Malicious: 1000 offered, 990 dropped (900 probation + 90 pdt),
    // 6 reached the victim.
    for (int i = 0; i < 1000; ++i) {
      ledger.on_defense_offered(packet_for(1), 11.0);
    }
    for (int i = 0; i < 900; ++i) {
      ledger.on_drop(packet_for(1), sim::DropReason::kDefenseProbe, 0, 11.0);
    }
    for (int i = 0; i < 90; ++i) {
      ledger.on_drop(packet_for(1), sim::DropReason::kDefensePdt, 0, 11.0);
    }
    for (int i = 0; i < 6; ++i) {
      ledger.on_victim_delivered(packet_for(1), 11.0);
    }

    // Legit TCP: 500 offered, 10 probation drops + 5 wrongly-PDT drops.
    for (int i = 0; i < 500; ++i) {
      ledger.on_defense_offered(packet_for(2), 11.0);
    }
    for (int i = 0; i < 10; ++i) {
      ledger.on_drop(packet_for(2), sim::DropReason::kDefenseProbe, 0, 11.0);
    }
    for (int i = 0; i < 5; ++i) {
      ledger.on_drop(packet_for(2), sim::DropReason::kDefensePdt, 0, 11.0);
    }

    // Legit UDP (unresponsive): 100 offered, 20 PDT drops — acceptable
    // collateral, must not count toward theta_p.
    for (int i = 0; i < 100; ++i) {
      ledger.on_defense_offered(packet_for(3), 11.0);
    }
    for (int i = 0; i < 20; ++i) {
      ledger.on_drop(packet_for(3), sim::DropReason::kDefensePdt, 0, 11.0);
    }
  }

  PacketLedger ledger;
};

TEST_F(ReportFormulas, Alpha) {
  const Metrics m = compute_metrics(ledger);
  EXPECT_NEAR(m.alpha, 990.0 / 1000.0, 1e-12);
  EXPECT_EQ(m.malicious_offered, 1000u);
  EXPECT_EQ(m.malicious_dropped, 990u);
}

TEST_F(ReportFormulas, ThetaNIsDefenseLineLeak) {
  const Metrics m = compute_metrics(ledger);
  EXPECT_NEAR(m.theta_n, 10.0 / 1000.0, 1e-12);
  EXPECT_EQ(m.malicious_arrived, 6u);
}

TEST_F(ReportFormulas, ThetaPCountsOnlyResponsiveLegitPdtDrops) {
  const Metrics m = compute_metrics(ledger);
  // 5 wrong PDT drops of the TCP flow / 1600 total offered.
  EXPECT_NEAR(m.theta_p, 5.0 / 1600.0, 1e-12);
}

TEST_F(ReportFormulas, LrCountsAllLegitDefenseDrops) {
  const Metrics m = compute_metrics(ledger);
  EXPECT_NEAR(m.lr, (10.0 + 5.0 + 20.0) / 600.0, 1e-12);
  EXPECT_EQ(m.legit_offered, 600u);
}

TEST_F(ReportFormulas, BetaFromVictimSeries) {
  // Pre rate: 2000 B per 0.4 s window; post: 200 B in the 0.1 s window.
  for (int i = 0; i < 4; ++i) {
    ledger.on_victim_offered(packet_for(1, 500), 9.6 + 0.1 * i);
  }
  ledger.on_victim_offered(packet_for(1, 200), 10.1);
  ReportWindows w;
  w.beta_pre_window = 0.4;
  w.beta_post_skip = 0.04;
  w.beta_post_window = 0.1;
  const Metrics m = compute_metrics(ledger, w);
  EXPECT_GT(m.beta, 0.0);
  EXPECT_GT(m.pre_rate_bps, m.post_rate_bps);
}

TEST_F(ReportFormulas, FormatMentionsKeyNumbers) {
  const Metrics m = compute_metrics(ledger);
  const std::string s = format_metrics(m);
  EXPECT_NE(s.find("alpha=99.00%"), std::string::npos);
  EXPECT_NE(s.find("990/1000"), std::string::npos);
}

}  // namespace
}  // namespace mafic::metrics
