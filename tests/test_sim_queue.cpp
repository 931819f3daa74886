#include "sim/queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mafic::sim {
namespace {

PacketPtr make_packet(std::uint32_t bytes, std::uint64_t uid = 0) {
  auto p = std::make_unique<Packet>();
  p->size_bytes = bytes;
  p->uid = uid;
  return p;
}

TEST(DropTailQueue, BuffersAndDequeuesFifo) {
  DropTailQueue q;
  q.recv(make_packet(100, 1));
  q.recv(make_packet(100, 2));
  q.recv(make_packet(100, 3));
  EXPECT_EQ(q.depth_packets(), 3u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
  EXPECT_EQ(q.dequeue()->uid, 2u);
  EXPECT_EQ(q.dequeue()->uid, 3u);
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(DropTailQueue, DropsWhenPacketCapacityExceeded) {
  DropTailQueue q(DropTailQueue::Config{2, 0});
  std::vector<DropReason> drops;
  q.set_drop_handler([&](const Packet&, DropReason r, NodeId) {
    drops.push_back(r);
  });
  q.recv(make_packet(100));
  q.recv(make_packet(100));
  q.recv(make_packet(100));  // over
  EXPECT_EQ(q.depth_packets(), 2u);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], DropReason::kQueueOverflow);
  EXPECT_EQ(q.stats().dropped, 1u);
}

TEST(DropTailQueue, ByteCapacityBound) {
  DropTailQueue q(DropTailQueue::Config{100, 250});
  q.recv(make_packet(100));
  q.recv(make_packet(100));
  q.recv(make_packet(100));  // 300 bytes > 250
  EXPECT_EQ(q.depth_packets(), 2u);
  EXPECT_EQ(q.depth_bytes(), 200u);
  EXPECT_EQ(q.stats().dropped, 1u);
}

TEST(DropTailQueue, ReadyCallbackFiresOnAccept) {
  DropTailQueue q(DropTailQueue::Config{1, 0});
  int ready = 0;
  q.set_ready_callback([&] { ++ready; });
  q.recv(make_packet(10));
  EXPECT_EQ(ready, 1);
  q.recv(make_packet(10));  // dropped -> no callback
  EXPECT_EQ(ready, 1);
}

TEST(DropTailQueue, StatsTrackPeakAndCounts) {
  DropTailQueue q;
  q.recv(make_packet(10));
  q.recv(make_packet(10));
  q.dequeue();
  q.recv(make_packet(10));
  EXPECT_EQ(q.stats().enqueued, 3u);
  EXPECT_EQ(q.stats().dequeued, 1u);
  EXPECT_EQ(q.stats().peak_depth, 2u);
}

TEST(DropTailQueue, BytesTrackedThroughDequeue) {
  DropTailQueue q;
  q.recv(make_packet(100));
  q.recv(make_packet(50));
  EXPECT_EQ(q.depth_bytes(), 150u);
  q.dequeue();
  EXPECT_EQ(q.depth_bytes(), 50u);
}

}  // namespace
}  // namespace mafic::sim
