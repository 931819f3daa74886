#pragma once

/// \file queue.hpp
/// Output queues feeding a link transmitter. DropTail matches what the
/// paper's NS-2 setup used on every link; RED is provided for ablations.
///
/// Interaction model (pull): the queue buffers every accepted packet and
/// invokes its ready-callback; the transmitter pulls with dequeue() when it
/// is idle and again each time a transmission completes.

#include <deque>
#include <functional>
#include <optional>

#include "sim/connector.hpp"
#include "sim/packet.hpp"
#include "util/rng.hpp"

namespace mafic::sim {

class PacketQueue : public Connector {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t dequeued = 0;
    std::size_t peak_depth = 0;
  };

  /// Next buffered packet, or null when empty.
  virtual PacketPtr dequeue() = 0;

  virtual std::size_t depth_packets() const noexcept = 0;
  virtual std::size_t depth_bytes() const noexcept = 0;

  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }
  void set_location(NodeId where) noexcept { location_ = where; }

  /// Invoked after a packet is accepted; the transmitter hooks this.
  void set_ready_callback(std::function<void()> cb) {
    ready_ = std::move(cb);
  }

  const Stats& stats() const noexcept { return stats_; }

 protected:
  void report_drop(const Packet& p, DropReason r) {
    ++stats_.dropped;
    if (drop_handler_) drop_handler_(p, r, location_);
  }

  void notify_ready() {
    if (ready_) ready_();
  }

  Stats stats_;

 private:
  DropHandler drop_handler_;
  std::function<void()> ready_;
  NodeId location_ = kInvalidNode;
};

/// Classic drop-tail FIFO bounded in packets (and optionally bytes).
class DropTailQueue final : public PacketQueue {
 public:
  struct Config {
    std::size_t capacity_packets = 64;
    std::size_t capacity_bytes = 0;  ///< 0 = unlimited
  };

  DropTailQueue() : DropTailQueue(Config{}) {}
  explicit DropTailQueue(Config cfg) : cfg_(cfg) {}

  void recv(PacketPtr p) override;
  PacketPtr dequeue() override;

  std::size_t depth_packets() const noexcept override { return q_.size(); }
  std::size_t depth_bytes() const noexcept override { return bytes_; }

 private:
  Config cfg_;
  std::deque<PacketPtr> q_;
  std::size_t bytes_ = 0;
};

/// Random Early Detection (Floyd/Jacobson) with EWMA queue averaging.
/// Used by ablation experiments; defaults follow common ns-2 values.
class RedQueue final : public PacketQueue {
 public:
  struct Config {
    std::size_t capacity_packets = 64;
    double min_threshold = 5;   ///< packets
    double max_threshold = 15;  ///< packets
    double max_drop_probability = 0.1;
    double weight = 0.002;  ///< EWMA weight for the average depth
  };

  explicit RedQueue(util::Rng rng) : RedQueue(rng, Config{}) {}
  RedQueue(util::Rng rng, Config cfg) : cfg_(cfg), rng_(rng) {}

  void recv(PacketPtr p) override;
  PacketPtr dequeue() override;

  std::size_t depth_packets() const noexcept override { return q_.size(); }
  std::size_t depth_bytes() const noexcept override { return bytes_; }
  double average_depth() const noexcept { return avg_; }

 private:
  Config cfg_;
  util::Rng rng_;
  std::deque<PacketPtr> q_;
  std::size_t bytes_ = 0;
  double avg_ = 0.0;
  std::uint64_t since_last_drop_ = 0;
};

}  // namespace mafic::sim
