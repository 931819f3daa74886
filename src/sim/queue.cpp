#include "sim/queue.hpp"

#include <algorithm>

namespace mafic::sim {

void DropTailQueue::recv(PacketPtr p) {
  const bool over_packets = q_.size() >= cfg_.capacity_packets;
  const bool over_bytes =
      cfg_.capacity_bytes != 0 && bytes_ + p->size_bytes > cfg_.capacity_bytes;
  if (over_packets || over_bytes) {
    ++stats_.dropped;
    if (drop_handler_) {
      drop_handler_(*p, DropReason::kQueueOverflow, location_);
    }
    return;
  }
  bytes_ += p->size_bytes;
  q_.push_back(std::move(p));
  ++stats_.enqueued;
  stats_.peak_depth = std::max(stats_.peak_depth, q_.size());
  if (ready_) ready_();
}

PacketPtr DropTailQueue::dequeue() {
  if (q_.empty()) return nullptr;
  PacketPtr p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p->size_bytes;
  ++stats_.dequeued;
  return p;
}

}  // namespace mafic::sim
