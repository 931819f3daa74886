#pragma once

/// \file link.hpp
/// A simplex link: head connector chain (taps, defense filters), a bounded
/// output queue, a serializing transmitter, and propagation delay. Mirrors
/// the NS-2 SimplexLink structure the paper instruments — "a subclass of
/// Connector ... is added to the head of each SimplexLink" (section IV).
///
/// A hop is two packet hand-offs on the simulator's lanes, as an NS-2 link
/// schedules the packet itself as the event for its next handler: one when
/// the packet's last bit leaves (the transmit lane of its size), one when
/// it arrives (the propagation lane). Neither is a closure.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/connector.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace mafic::sim {

/// Serializes packets onto the wire at the configured bandwidth, then
/// delivers them to the endpoint after the propagation delay, one packet
/// per event as an NS-2 link does. Pulls from its DropTailQueue. The
/// propagation lane is resolved once, here; a NaN delay throws
/// std::invalid_argument.
class LinkTransmitter final : public Connector {
 public:
  LinkTransmitter(Simulator* sim, double bandwidth_bps, double delay_s);
  LinkTransmitter(const LinkTransmitter&) = delete;
  LinkTransmitter& operator=(const LinkTransmitter&) = delete;

  /// Direct injection (used when there is no queue, e.g. unit tests).
  void recv(PacketPtr p) override;

  void attach_queue(DropTailQueue* q);

  bool idle() const noexcept { return !busy_; }
  double bandwidth_bps() const noexcept { return bandwidth_bps_; }
  double delay_s() const noexcept { return delay_s_; }

  std::uint64_t packets_delivered() const noexcept { return delivered_; }
  std::uint64_t bytes_delivered() const noexcept { return bytes_; }

 private:
  /// Hand-off target for the end of a packet's serialization.
  class Sent final : public Connector {
   public:
    explicit Sent(LinkTransmitter* tx) : tx_(tx) {}
    void recv(PacketPtr p) override { tx_->transmitted(std::move(p)); }

   private:
    LinkTransmitter* tx_;
  };

  /// Hand-off target for a packet's arrival: it goes on to the
  /// transmitter's target as it stands when the packet arrives.
  class Arrival final : public Connector {
   public:
    explicit Arrival(LinkTransmitter* tx) : tx_(tx) {}
    void recv(PacketPtr p) override { tx_->pass(std::move(p)); }

   private:
    LinkTransmitter* tx_;
  };

  /// One entry of the size -> transmit lane cache.
  struct TxLane {
    std::uint64_t size_bytes = ~std::uint64_t{0};  ///< matches no packet
    LaneId lane = 0;
  };

  void try_pull();
  void transmit(PacketPtr p);
  void transmitted(PacketPtr p);
  /// The lane of a packet's serialization time: a 2-entry cache, most
  /// recent size first, so steady traffic never hashes.
  LaneId tx_lane(std::uint32_t size_bytes) {
    if (tx_lanes_[0].size_bytes == size_bytes) return tx_lanes_[0].lane;
    if (tx_lanes_[1].size_bytes == size_bytes) return tx_lanes_[1].lane;
    return tx_lane_miss(size_bytes);
  }
  LaneId tx_lane_miss(std::uint32_t size_bytes);

  Simulator* sim_;
  double bandwidth_bps_;
  double delay_s_;
  LaneId prop_lane_;
  TxLane tx_lanes_[2];
  Sent sent_{this};
  Arrival arrival_{this};
  DropTailQueue* queue_ = nullptr;
  bool busy_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_ = 0;
};

/// One-directional link between two nodes.
class SimplexLink {
 public:
  struct Config {
    double bandwidth_bps = 10e6;
    double delay_s = 0.010;
    std::size_t queue_capacity_packets = 64;
  };

  SimplexLink(Simulator* sim, NodeId from, NodeId to, Config cfg);

  /// First connector of the datapath; the upstream node sends here.
  Connector* entry() noexcept;

  /// Where delivered packets go (the downstream node's ingress).
  void set_endpoint(Connector* ep) noexcept;

  /// Inserts a connector at the current tail of the head chain, i.e. it
  /// sees packets after previously installed head filters and before the
  /// queue. Ownership transfers to the link.
  void add_head_filter(std::unique_ptr<Connector> c);

  /// Inserts a tap after the transmitter (post-queue, post-drop), before
  /// delivery to the endpoint: it sees what actually crossed the link.
  /// Ownership transfers to the link.
  void add_tail_tap(std::unique_ptr<TapConnector> c);

  /// Installs the drop handler on the queue (and remembers it so future
  /// filters can reuse it).
  void set_drop_handler(DropHandler h);

  NodeId from() const noexcept { return from_; }
  NodeId to() const noexcept { return to_; }
  const Config& config() const noexcept { return cfg_; }
  DropTailQueue& queue() noexcept { return *queue_; }
  const DropTailQueue& queue() const noexcept { return *queue_; }
  LinkTransmitter& transmitter() noexcept { return *tx_; }
  const LinkTransmitter& transmitter() const noexcept { return *tx_; }
  const DropHandler& drop_handler() const noexcept { return drop_handler_; }

 private:
  void rechain();

  NodeId from_;
  NodeId to_;
  Config cfg_;
  std::vector<std::unique_ptr<Connector>> heads_;
  std::vector<std::unique_ptr<TapConnector>> tails_;
  std::unique_ptr<DropTailQueue> queue_;
  std::unique_ptr<LinkTransmitter> tx_;
  Connector* endpoint_ = nullptr;
  DropHandler drop_handler_;
};

}  // namespace mafic::sim
