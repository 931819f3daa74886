// Model-based randomized tests: the event queue (closures and lane
// hand-offs) against a reference implementation, end-to-end conservation
// checks on random topologies, and a fuzzer that checks a MaficFilter's
// drops and survivors partition its input stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "core/mafic_filter.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topology/topology.hpp"
#include "transport/cbr.hpp"
#include "transport/udp.hpp"
#include "util/rng.hpp"

namespace mafic::sim {
namespace {

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// A hand-off target the fuzz never calls: it pops the queue directly.
class NullSink final : public Connector {
 public:
  void recv(PacketPtr) override {}
};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  EventQueue q;
  // Reference: ordered multimap (time, id) of live events, closures and
  // hand-offs alike. Ids increase with push order, so the model breaks
  // time ties by schedule order.
  std::multimap<std::pair<SimTime, EventId>, int> model;
  std::vector<EventId> live_ids;
  // Ids already popped or cancelled: their slots get reused, so a stale
  // cancel must fail and leave the slot's new occupant alive.
  std::vector<EventId> dead_ids;
  int next_tag = 0;
  std::vector<EventId> popped_real, popped_model;
  // Hand-offs go on four lanes whose delays sit on the closures' coarse
  // time grid, so lane/lane and lane/closure ties are frequent. As in the
  // Simulator, a hand-off lands at now + delay, where now is the latest
  // time popped so far.
  const SimTime kDelays[] = {0.0, 5.0, 10.0, 20.0};
  std::vector<LaneId> lanes;
  for (const SimTime d : kDelays) lanes.push_back(q.lane(d));
  NullSink sink;
  std::vector<EventId> hand_off_ids;  // pending hand-offs
  SimTime now = 0.0;

  for (int step = 0; step < 5000; ++step) {
    const double action = rng.uniform01();
    if (action < 0.55 || q.empty()) {
      const int tag = next_tag++;
      if (rng.uniform01() < 0.4) {
        const std::size_t pick = rng.index(lanes.size());
        auto p = std::make_unique<Packet>();
        p->uid = static_cast<std::uint64_t>(tag);
        const EventId id = q.push_hand_off(lanes[pick], now, &sink,
                                           std::move(p));
        const SimTime t = kDelays[pick] <= 0 ? now : now + kDelays[pick];
        model.emplace(std::make_pair(t, id), tag);
        hand_off_ids.push_back(id);
      } else {
        // Half the times on a coarse grid, so that ties are frequent.
        const SimTime t = rng.uniform01() < 0.5
                              ? 5.0 * static_cast<double>(rng.index(20))
                              : rng.uniform(0.0, 100.0);
        const EventId id = q.push(t, [] {});
        model.emplace(std::make_pair(t, id), tag);
        live_ids.push_back(id);
      }
    } else if (action < 0.6 && !hand_off_ids.empty()) {
      // Hand-offs cannot be cancelled: the call fails and changes nothing.
      const std::size_t before = q.size();
      EXPECT_FALSE(q.cancel(hand_off_ids[rng.index(hand_off_ids.size())]));
      EXPECT_EQ(q.size(), before);
    } else if (action < 0.65 && !dead_ids.empty()) {
      // Cancel a stale id.
      const EventId id = dead_ids[rng.index(dead_ids.size())];
      EXPECT_FALSE(q.cancel(id));
    } else if (action < 0.75 && !live_ids.empty()) {
      // Cancel a random live id.
      const std::size_t pick = rng.index(live_ids.size());
      const EventId id = live_ids[pick];
      const bool cancelled = q.cancel(id);
      // Mirror in the model.
      bool in_model = false;
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->first.second == id) {
          model.erase(it);
          in_model = true;
          break;
        }
      }
      EXPECT_TRUE(cancelled);
      EXPECT_EQ(cancelled, in_model);
      live_ids.erase(live_ids.begin() + long(pick));
      dead_ids.push_back(id);
    } else if (!q.empty()) {
      auto popped = q.pop();
      ASSERT_FALSE(model.empty());
      const auto expect = model.begin();
      EXPECT_DOUBLE_EQ(popped.time, expect->first.first);
      EXPECT_EQ(popped.id, expect->first.second);
      // A hand-off comes back with its own packet, a closure with its fn.
      if (popped.to != nullptr) {
        EXPECT_EQ(popped.to, &sink);
        ASSERT_NE(popped.packet, nullptr);
        EXPECT_EQ(popped.packet->uid,
                  static_cast<std::uint64_t>(expect->second));
      } else {
        EXPECT_TRUE(static_cast<bool>(popped.fn));
      }
      popped_real.push_back(popped.id);
      popped_model.push_back(expect->first.second);
      model.erase(expect);
      live_ids.erase(
          std::remove(live_ids.begin(), live_ids.end(), popped.id),
          live_ids.end());
      hand_off_ids.erase(
          std::remove(hand_off_ids.begin(), hand_off_ids.end(), popped.id),
          hand_off_ids.end());
      dead_ids.push_back(popped.id);
      now = std::max(now, popped.time);
    }
    ASSERT_EQ(q.size(), model.size());
  }
  EXPECT_EQ(popped_real, popped_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 99));

class ConservationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// On a random domain with random CBR flows, every emitted packet must be
// accounted for: delivered to an agent, dropped with a reason, or still
// queued/in flight when the run stops.
TEST_P(ConservationFuzz, PacketsAreConserved) {
  Simulator sim;
  Network net(&sim);
  util::Rng rng(GetParam());

  topology::DomainConfig dc;
  dc.router_count = 6 + rng.index(6);
  dc.victim_bandwidth_bps = 2e6;  // force queue drops
  dc.victim_queue_packets = 20;
  topology::Domain domain(&net, rng.split(), dc);
  domain.build_core();

  PacketFactory factory;
  std::vector<std::unique_ptr<transport::CbrSource>> sources;
  std::vector<std::unique_ptr<transport::UdpSink>> sinks;
  Node* victim = net.node(domain.victim_host());

  const int flows = 3 + int(rng.index(6));
  for (int i = 0; i < flows; ++i) {
    auto& access = domain.attach_host();
    transport::CbrSource::Config cc;
    cc.rate_bps = rng.uniform(200e3, 2e6);
    cc.packet_bytes = 500;
    auto src = std::make_unique<transport::CbrSource>(
        &sim, &factory, net.node(access.host), 5000, cc, rng.split());
    src->connect(domain.victim_addr(), std::uint16_t(2000 + i));
    auto sink = std::make_unique<transport::UdpSink>(
        &sim, &factory, victim, std::uint16_t(2000 + i));
    src->start();
    sources.push_back(std::move(src));
    sinks.push_back(std::move(sink));
  }
  net.build_routes();

  std::uint64_t dropped = 0;
  net.set_drop_handler(
      [&](const Packet&, DropReason, NodeId) { ++dropped; });

  sim.run_until(3.0);

  std::uint64_t sent = 0, received = 0;
  for (const auto& s : sources) sent += s->packets_sent();
  for (const auto& s : sinks) received += s->packets_received();

  std::uint64_t queued = 0;
  for (const auto& link : net.links()) {
    queued += link->queue().depth_packets();
    queued += link->transmitter().idle() ? 0 : 1;
  }
  // In-flight propagation events are bounded by links count; allow them
  // as slack alongside explicit queue occupancy.
  EXPECT_LE(received + dropped, sent);
  EXPECT_GE(received + dropped + queued + net.link_count(), sent);
  EXPECT_GT(received, 0u);
  EXPECT_GT(dropped, 0u);  // the 2 Mb/s victim link must have overflowed
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationFuzz,
                         ::testing::Values(11, 22, 33, 44));

class MaficFilterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Span fuzzer: random groups of packets arrive at one instant and a
// MaficFilter recv()s them in order, with Pd = 0.9: drops thin the
// stream, but the survivors plus the dropped uids must partition the
// input — order preserved among survivors, no uid lost, none seen twice.
TEST_P(MaficFilterFuzz, DropsPartitionTheStreamWithoutLossOrDuplication) {
  util::Rng rng(GetParam() * 977 + 1);

  Simulator sim;
  Network net(&sim);
  Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  PacketFactory factory;

  core::MaficConfig cfg;
  cfg.drop_probability = 0.9;
  cfg.coin_seed = GetParam();
  cfg.probe_enabled = false;
  cfg.sft_capacity = 8;  // force mid-group capacity evictions too
  core::MaficFilter filter(&sim, &factory, atr, cfg, nullptr);
  class UidSink final : public Connector {
   public:
    void recv(PacketPtr p) override { uids.push_back(p->uid); }
    std::vector<std::uint64_t> uids;
  } sink;
  filter.set_target(&sink);
  std::vector<std::uint64_t> dropped;
  filter.set_drop_handler(
      [&](const Packet& p, DropReason, NodeId) { dropped.push_back(p.uid); });
  filter.activate({util::make_addr(172, 17, 0, 1)});

  std::vector<std::uint64_t> sent;
  double t = 0.001;
  for (int group = 0; group < 150; ++group) {
    const std::size_t n = 1 + rng.index(64);
    sim.schedule_at(t, [&, n] {
      for (std::size_t i = 0; i < n; ++i) {
        auto p = factory.make();
        const auto f = static_cast<std::uint32_t>(rng.index(96));
        p->label = {util::make_addr(172, 16, 0, std::uint8_t(f)),
                    util::make_addr(172, 17, 0, 1),
                    std::uint16_t(1024 + f), 80};
        p->proto = Protocol::kTcp;
        p->size_bytes = 500;
        sent.push_back(p->uid);
        filter.recv(std::move(p));
      }
    });
    t += 0.001;
  }
  sim.run();

  EXPECT_GT(sink.uids.size(), 0u);
  EXPECT_GT(dropped.size(), 0u);
  EXPECT_EQ(sink.uids.size() + dropped.size(), sent.size());
  // Survivors keep arrival order (a subsequence of the input)...
  std::size_t pos = 0;
  for (const std::uint64_t uid : sink.uids) {
    while (pos < sent.size() && sent[pos] != uid) ++pos;
    ASSERT_LT(pos, sent.size()) << "survivor out of order or unknown";
    ++pos;
  }
  // ...and no uid appears on both sides or twice on either.
  std::unordered_set<std::uint64_t> seen;
  for (const std::uint64_t uid : sink.uids) {
    EXPECT_TRUE(seen.insert(uid).second);
  }
  for (const std::uint64_t uid : dropped) {
    EXPECT_TRUE(seen.insert(uid).second);
  }
  EXPECT_EQ(seen.size(), sent.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaficFilterFuzz,
                         ::testing::Values(7, 19, 101, 20260729));

}  // namespace
}  // namespace mafic::sim
