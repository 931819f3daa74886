#include "sim/link.hpp"

#include <cassert>
#include <utility>

namespace mafic::sim {

void LinkTransmitter::recv(PacketPtr p) {
  if (burst_ > 1 && !busy_ && train_.empty()) {
    train_.push_back(std::move(p));
    transmit_train();
    return;
  }
  // Legacy per-packet path: burst_ <= 1, or (misuse) direct injection
  // while a train is in flight — the latter asserts in debug and in
  // release is mistimed exactly like the pre-burst transmitter under
  // the same misuse, but never touches train_, so nothing is lost.
  transmit(std::move(p));
}

void LinkTransmitter::attach_queue(PacketQueue* q) {
  queue_ = q;
  queue_->set_ready_callback([this] { try_pull(); });
}

void LinkTransmitter::try_pull() {
  if (busy_ || queue_ == nullptr) return;
  if (burst_ > 1) {
    // Each delivered train hands its buffer to the propagation event;
    // recycled buffers come back through spare_trains_, so steady-state
    // bursting reuses capacity instead of allocating per train.
    if (train_.capacity() < burst_ && !spare_trains_.empty()) {
      train_ = std::move(spare_trains_.back());
      spare_trains_.pop_back();
    }
    train_.resize(burst_);
    const std::size_t n = queue_->dequeue_burst(train_.data(), burst_);
    train_.resize(n);
    if (n > 0) transmit_train();
    return;
  }
  if (PacketPtr p = queue_->dequeue()) transmit(std::move(p));
}

void LinkTransmitter::transmit(PacketPtr p) {
  assert(!busy_ && "transmitter received a packet while busy");
  busy_ = true;
  const double tx_time =
      static_cast<double>(p->size_bytes) * 8.0 / bandwidth_bps_;
  sim_->schedule(tx_time, [this, pkt = std::move(p)]() mutable {
    busy_ = false;
    ++delivered_;
    bytes_ += pkt->size_bytes;
    // Propagation: multiple packets may be in flight simultaneously.
    sim_->schedule(delay_s_, [this, pkt2 = std::move(pkt)]() mutable {
      pass(std::move(pkt2));
    });
    try_pull();
  });
}

void LinkTransmitter::transmit_train() {
  assert(!busy_ && !train_.empty());
  busy_ = true;
  std::uint64_t train_bytes = 0;
  for (const PacketPtr& p : train_) train_bytes += p->size_bytes;
  const double tx_time =
      static_cast<double>(train_bytes) * 8.0 / bandwidth_bps_;
  sim_->schedule(tx_time, [this, train_bytes] {
    busy_ = false;
    delivered_ += train_.size();
    bytes_ += train_bytes;
    ++bursts_;
    // Hand the span off to the propagation event before pulling the next
    // train (the pull refills train_); the buffer returns to the spare
    // pool after delivery.
    sim_->schedule(delay_s_, [this, span = std::move(train_)]() mutable {
      pass_burst(span.data(), span.size());
      span.clear();
      spare_trains_.push_back(std::move(span));
    });
    train_.clear();
    try_pull();
  });
}

SimplexLink::SimplexLink(Simulator* sim, NodeId from, NodeId to, Config cfg)
    : from_(from),
      to_(to),
      cfg_(cfg),
      queue_(std::make_unique<DropTailQueue>(
          DropTailQueue::Config{cfg.queue_capacity_packets, 0})),
      tx_(std::make_unique<LinkTransmitter>(sim, cfg.bandwidth_bps,
                                            cfg.delay_s,
                                            cfg.burst_packets)) {
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

void SimplexLink::add_tail_tap(std::unique_ptr<Connector> c) {
  if (auto* filter = dynamic_cast<InlineFilter*>(c.get())) {
    filter->set_location(to_);  // receiving-side filtering point
    if (drop_handler_) filter->set_drop_handler(drop_handler_);
  }
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
  for (auto& c : tails_) {
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
