#pragma once

/// \file queue.hpp
/// The output queue feeding a link transmitter: drop-tail, what the
/// paper's NS-2 setup used on every link.
///
/// Interaction model (pull): the queue buffers every accepted packet and
/// invokes its ready-callback; the transmitter pulls with dequeue() when it
/// is idle and again each time a transmission completes.

#include <deque>
#include <functional>

#include "sim/connector.hpp"
#include "sim/packet.hpp"

namespace mafic::sim {

/// Classic drop-tail FIFO bounded in packets (and optionally bytes).
class DropTailQueue final : public Connector {
 public:
  struct Config {
    std::size_t capacity_packets = 64;
    std::size_t capacity_bytes = 0;  ///< 0 = unlimited
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t dequeued = 0;
    std::size_t peak_depth = 0;
  };

  DropTailQueue() : DropTailQueue(Config{}) {}
  explicit DropTailQueue(Config cfg) : cfg_(cfg) {}

  void recv(PacketPtr p) override;

  /// Next buffered packet, or null when empty.
  PacketPtr dequeue();

  std::size_t depth_packets() const noexcept { return q_.size(); }
  std::size_t depth_bytes() const noexcept { return bytes_; }

  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }
  void set_location(NodeId where) noexcept { location_ = where; }

  /// Invoked after a packet is accepted; the transmitter hooks this.
  void set_ready_callback(std::function<void()> cb) {
    ready_ = std::move(cb);
  }

  const Stats& stats() const noexcept { return stats_; }

 private:
  Config cfg_;
  std::deque<PacketPtr> q_;
  std::size_t bytes_ = 0;
  Stats stats_;
  DropHandler drop_handler_;
  std::function<void()> ready_;
  NodeId location_ = kInvalidNode;
};

}  // namespace mafic::sim
