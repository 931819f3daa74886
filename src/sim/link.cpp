#include "sim/link.hpp"

#include <cassert>
#include <utility>

namespace mafic::sim {

LinkTransmitter::LinkTransmitter(Simulator* sim, double bandwidth_bps,
                                 double delay_s)
    : sim_(sim),
      bandwidth_bps_(bandwidth_bps),
      delay_s_(delay_s),
      prop_lane_(sim->lane(delay_s)) {}

void LinkTransmitter::recv(PacketPtr p) { transmit(std::move(p)); }

void LinkTransmitter::attach_queue(DropTailQueue* q) {
  queue_ = q;
  queue_->set_ready_callback([this] { try_pull(); });
}

void LinkTransmitter::try_pull() {
  if (busy_ || queue_ == nullptr) return;
  if (PacketPtr p = queue_->dequeue()) transmit(std::move(p));
}

LaneId LinkTransmitter::tx_lane_miss(std::uint32_t size_bytes) {
  const LaneId lane =
      sim_->lane(static_cast<double>(size_bytes) * 8.0 / bandwidth_bps_);
  tx_lanes_[1] = tx_lanes_[0];
  tx_lanes_[0] = TxLane{size_bytes, lane};
  return lane;
}

// maficlint: hot
void LinkTransmitter::transmit(PacketPtr p) {
  assert(!busy_ && "transmitter received a packet while busy");
  busy_ = true;
  const LaneId lane = tx_lane(p->size_bytes);
  sim_->hand_off(lane, &sent_, std::move(p));
}

// maficlint: hot
void LinkTransmitter::transmitted(PacketPtr p) {
  busy_ = false;
  ++delivered_;
  bytes_ += p->size_bytes;
  // Propagation: multiple packets may be in flight simultaneously.
  sim_->hand_off(prop_lane_, &arrival_, std::move(p));
  try_pull();
}

SimplexLink::SimplexLink(Simulator* sim, NodeId from, NodeId to, Config cfg)
    : from_(from),
      to_(to),
      cfg_(cfg),
      queue_(std::make_unique<DropTailQueue>(
          DropTailQueue::Config{cfg.queue_capacity_packets, 0})),
      tx_(std::make_unique<LinkTransmitter>(sim, cfg.bandwidth_bps,
                                            cfg.delay_s)) {
  queue_->set_location(from);
  tx_->attach_queue(queue_.get());
  rechain();
}

Connector* SimplexLink::entry() noexcept {
  return heads_.empty() ? static_cast<Connector*>(queue_.get())
                        : heads_.front().get();
}

void SimplexLink::set_endpoint(Connector* ep) noexcept {
  endpoint_ = ep;
  rechain();
}

void SimplexLink::add_head_filter(std::unique_ptr<Connector> c) {
  if (auto* filter = dynamic_cast<InlineFilter*>(c.get())) {
    filter->set_location(from_);
    if (drop_handler_) filter->set_drop_handler(drop_handler_);
  }
  heads_.push_back(std::move(c));
  rechain();
}

void SimplexLink::add_tail_tap(std::unique_ptr<TapConnector> c) {
  tails_.push_back(std::move(c));
  rechain();
}

void SimplexLink::set_drop_handler(DropHandler h) {
  drop_handler_ = std::move(h);
  queue_->set_drop_handler(drop_handler_);
  for (auto& c : heads_) {
    if (auto* filter = dynamic_cast<InlineFilter*>(c.get())) {
      filter->set_drop_handler(drop_handler_);
    }
  }
}

void SimplexLink::rechain() {
  for (std::size_t i = 0; i + 1 < heads_.size(); ++i) {
    heads_[i]->set_target(heads_[i + 1].get());
  }
  if (!heads_.empty()) heads_.back()->set_target(queue_.get());
  // The queue's "target" is informational; the transmitter pulls from it.
  queue_->set_target(tx_.get());
  // Post-transmission: tx -> tail taps -> endpoint.
  for (std::size_t i = 0; i + 1 < tails_.size(); ++i) {
    tails_[i]->set_target(tails_[i + 1].get());
  }
  if (tails_.empty()) {
    tx_->set_target(endpoint_);
  } else {
    tx_->set_target(tails_.front().get());
    tails_.back()->set_target(endpoint_);
  }
}

}  // namespace mafic::sim
