#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace mafic::sim {
namespace {

class Collector final : public Connector {
 public:
  void recv(PacketPtr p) override {
    times.push_back(sim_->now());
    uids.push_back(p->uid);
  }
  explicit Collector(Simulator* sim) : sim_(sim) {}
  Simulator* sim_;
  std::vector<double> times;
  std::vector<std::uint64_t> uids;
};

PacketPtr make_packet(std::uint32_t bytes, std::uint64_t uid = 0) {
  auto p = std::make_unique<Packet>();
  p->size_bytes = bytes;
  p->uid = uid;
  return p;
}

SimplexLink::Config cfg(double bw, double delay, std::size_t q = 64) {
  SimplexLink::Config c;
  c.bandwidth_bps = bw;
  c.delay_s = delay;
  c.queue_capacity_packets = q;
  return c;
}

TEST(SimplexLink, DeliveryTimeIsTransmissionPlusPropagation) {
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e6, 0.01));
  Collector sink(&sim);
  link.set_endpoint(&sink);
  link.entry()->recv(make_packet(1000, 7));  // 8000 bits / 1e6 = 8 ms tx
  sim.run();
  ASSERT_EQ(sink.times.size(), 1u);
  EXPECT_NEAR(sink.times[0], 0.008 + 0.01, 1e-12);
  EXPECT_EQ(sink.uids[0], 7u);
}

TEST(SimplexLink, BackToBackPacketsSerialize) {
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e6, 0.0));
  Collector sink(&sim);
  link.set_endpoint(&sink);
  link.entry()->recv(make_packet(1000, 1));
  link.entry()->recv(make_packet(1000, 2));
  sim.run();
  ASSERT_EQ(sink.times.size(), 2u);
  EXPECT_NEAR(sink.times[0], 0.008, 1e-12);
  EXPECT_NEAR(sink.times[1], 0.016, 1e-12);  // waited for the first
}

TEST(SimplexLink, PropagationPipelines) {
  // Long delay, fast link: both packets are in flight simultaneously.
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e8, 0.1));
  Collector sink(&sim);
  link.set_endpoint(&sink);
  link.entry()->recv(make_packet(1000, 1));  // tx 80 us
  link.entry()->recv(make_packet(1000, 2));
  sim.run();
  ASSERT_EQ(sink.times.size(), 2u);
  EXPECT_NEAR(sink.times[1] - sink.times[0], 80e-6, 1e-9);
}

TEST(SimplexLink, QueueOverflowDrops) {
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e3, 0.0, 2));  // slow link, queue 2
  Collector sink(&sim);
  link.set_endpoint(&sink);
  int drops = 0;
  link.set_drop_handler([&](const Packet&, DropReason r, NodeId) {
    EXPECT_EQ(r, DropReason::kQueueOverflow);
    ++drops;
  });
  for (int i = 0; i < 10; ++i) link.entry()->recv(make_packet(1000));
  sim.run();
  // 1 in transmission... the first packet dequeues immediately, 2 buffered,
  // the rest dropped.
  EXPECT_EQ(drops, 7);
  EXPECT_EQ(sink.times.size(), 3u);
}

TEST(SimplexLink, HeadFiltersRunInInstallationOrder) {
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e6, 0.0));
  Collector sink(&sim);
  link.set_endpoint(&sink);
  std::vector<int> order;
  link.add_head_filter(std::make_unique<TapConnector>(
      [&](const Packet&) { order.push_back(1); }));
  link.add_head_filter(std::make_unique<TapConnector>(
      [&](const Packet&) { order.push_back(2); }));
  link.entry()->recv(make_packet(100));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sink.times.size(), 1u);
}

TEST(SimplexLink, InlineFilterCanDrop) {
  class DropAll final : public InlineFilter {
   protected:
    Decision inspect(Packet&) override {
      return Decision::drop(DropReason::kDefenseProbe);
    }
  };
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e6, 0.0));
  Collector sink(&sim);
  link.set_endpoint(&sink);
  int drops = 0;
  link.set_drop_handler(
      [&](const Packet&, DropReason, NodeId where) {
        EXPECT_EQ(where, 0u);
        ++drops;
      });
  link.add_head_filter(std::make_unique<DropAll>());
  link.entry()->recv(make_packet(100));
  sim.run();
  EXPECT_EQ(drops, 1);
  EXPECT_TRUE(sink.times.empty());
}

TEST(SimplexLink, TailTapSeesOnlySurvivors) {
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e3, 0.0, 1));  // tight queue
  Collector sink(&sim);
  link.set_endpoint(&sink);
  int head_count = 0, tail_count = 0;
  link.add_head_filter(std::make_unique<TapConnector>(
      [&](const Packet&) { ++head_count; }));
  link.add_tail_tap(std::make_unique<TapConnector>(
      [&](const Packet&) { ++tail_count; }));
  for (int i = 0; i < 5; ++i) link.entry()->recv(make_packet(1000));
  sim.run();
  EXPECT_EQ(head_count, 5);
  EXPECT_EQ(tail_count, 2);  // 1 transmitting + 1 queued survive
  EXPECT_EQ(sink.times.size(), 2u);
}

TEST(SimplexLink, TransmitterStatsAccumulate) {
  Simulator sim;
  SimplexLink link(&sim, 3, 9, cfg(1e6, 0.001));
  Collector sink(&sim);
  link.set_endpoint(&sink);
  link.entry()->recv(make_packet(500));
  link.entry()->recv(make_packet(500));
  sim.run();
  EXPECT_EQ(link.transmitter().packets_delivered(), 2u);
  EXPECT_EQ(link.transmitter().bytes_delivered(), 1000u);
  EXPECT_EQ(link.from(), 3u);
  EXPECT_EQ(link.to(), 9u);
}

TEST(SimplexLink, DestroyingTheSimulatorDestroysPacketsInFlight) {
  // A pending hand-off owns its packet. With two packets propagating and
  // a third still transmitting, destroying the simulator must destroy all
  // three (they come back to the packet freelist).
  Packet::trim_freelist();
  auto sim = std::make_unique<Simulator>();
  SimplexLink link(sim.get(), 0, 1, cfg(1e6, 1.0));  // 8 ms tx, 1 s delay
  Collector sink(sim.get());
  link.set_endpoint(&sink);
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    link.entry()->recv(make_packet(1000, uid));
  }
  sim->run_until(0.020);  // sent at 8 and 16 ms; the third ends at 24 ms
  ASSERT_TRUE(sink.uids.empty());
  EXPECT_FALSE(link.transmitter().idle());
  EXPECT_EQ(link.queue().depth_packets(), 0u);
  EXPECT_EQ(link.transmitter().packets_delivered(), 2u);
  EXPECT_EQ(sim->pending_count(), 3u);
  EXPECT_EQ(Packet::freelist_size(), 0u);
  sim.reset();
  EXPECT_EQ(Packet::freelist_size(), 3u);
}

TEST(SimplexLink, TailTapAddedWhilePropagatingSeesThePacket) {
  // A delivery goes to the transmitter's target as it stands when the
  // packet arrives, not when it left the wire.
  Simulator sim;
  SimplexLink link(&sim, 0, 1, cfg(1e6, 0.5));  // arrives at 0.508 s
  Collector sink(&sim);
  link.set_endpoint(&sink);
  link.entry()->recv(make_packet(1000, 7));
  sim.run_until(0.1);
  ASSERT_TRUE(link.transmitter().idle());
  ASSERT_TRUE(sink.uids.empty());
  std::vector<std::uint64_t> tapped;
  link.add_tail_tap(std::make_unique<TapConnector>(
      [&](const Packet& p) { tapped.push_back(p.uid); }));
  sim.run();
  EXPECT_EQ(tapped, (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(sink.uids, (std::vector<std::uint64_t>{7}));
  EXPECT_NEAR(sink.times[0], 0.508, 1e-12);
}

}  // namespace
}  // namespace mafic::sim
