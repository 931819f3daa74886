#pragma once

/// \file link.hpp
/// A simplex link: head connector chain (taps, defense filters), a bounded
/// output queue, a serializing transmitter, and propagation delay. Mirrors
/// the NS-2 SimplexLink structure the paper instruments — "a subclass of
/// Connector ... is added to the head of each SimplexLink" (section IV).

#include <memory>
#include <vector>

#include "sim/connector.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace mafic::sim {

/// Serializes packets onto the wire at the configured bandwidth, then
/// delivers them to the endpoint after the propagation delay. Pulls from
/// its PacketQueue.
///
/// Burst mode (`burst_packets > 1`): up to that many queued packets are
/// pulled and serialized back-to-back as one train, and the whole span is
/// delivered to the endpoint in ONE event at last-bit time + propagation
/// delay — so downstream batch consumers (Node routing, inspect_batch
/// filters) see real bursts. Per-packet fields (uid, timestamps, order)
/// are untouched; the only semantic difference from per-packet mode is
/// that the first packets of a train arrive with it instead of up to
/// (burst-1) transmission times earlier. `burst_packets == 1` preserves
/// the original per-packet event sequence exactly.
class LinkTransmitter final : public Connector {
 public:
  LinkTransmitter(Simulator* sim, double bandwidth_bps, double delay_s,
                  std::size_t burst_packets = 1)
      : sim_(sim),
        bandwidth_bps_(bandwidth_bps),
        delay_s_(delay_s),
        burst_(burst_packets > 1 ? burst_packets : 1) {}

  /// Direct injection (used when there is no queue, e.g. unit tests).
  void recv(PacketPtr p) override;

  void attach_queue(PacketQueue* q);

  bool idle() const noexcept { return !busy_; }
  double bandwidth_bps() const noexcept { return bandwidth_bps_; }
  double delay_s() const noexcept { return delay_s_; }
  std::size_t burst_packets() const noexcept { return burst_; }

  std::uint64_t packets_delivered() const noexcept { return delivered_; }
  std::uint64_t bytes_delivered() const noexcept { return bytes_; }
  std::uint64_t bursts_delivered() const noexcept { return bursts_; }

 private:
  void try_pull();
  void transmit(PacketPtr p);
  /// Serializes train_ onto the wire as one back-to-back departure.
  void transmit_train();

  Simulator* sim_;
  double bandwidth_bps_;
  double delay_s_;
  std::size_t burst_;
  PacketQueue* queue_ = nullptr;
  bool busy_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t bursts_ = 0;
  std::vector<PacketPtr> train_;  ///< burst-mode staging
  /// Buffers returned by delivered trains; try_pull recycles them so
  /// steady-state bursting performs no per-train allocation.
  std::vector<std::vector<PacketPtr>> spare_trains_;
};

/// One-directional link between two nodes.
class SimplexLink {
 public:
  struct Config {
    double bandwidth_bps = 10e6;
    double delay_s = 0.010;
    std::size_t queue_capacity_packets = 64;
    /// Departure coalescing: the transmitter serializes up to this many
    /// queued packets back-to-back and delivers them as one span (see
    /// LinkTransmitter). 1 = per-packet delivery (legacy semantics).
    std::size_t burst_packets = 1;
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

  /// Inserts a connector after the transmitter (post-queue, post-drop),
  /// before delivery to the endpoint: it sees what actually crossed the
  /// link, including whole bursts in burst mode. An InlineFilter here is
  /// the receiving-side filtering point (location = to(), wired to the
  /// drop handler). Ownership transfers to the link.
  void add_tail_tap(std::unique_ptr<Connector> c);

  /// Installs the drop handler on the queue (and remembers it so future
  /// filters can reuse it).
  void set_drop_handler(DropHandler h);

  NodeId from() const noexcept { return from_; }
  NodeId to() const noexcept { return to_; }
  const Config& config() const noexcept { return cfg_; }
  PacketQueue& queue() noexcept { return *queue_; }
  const PacketQueue& queue() const noexcept { return *queue_; }
  LinkTransmitter& transmitter() noexcept { return *tx_; }
  const LinkTransmitter& transmitter() const noexcept { return *tx_; }
  const DropHandler& drop_handler() const noexcept { return drop_handler_; }

 private:
  void rechain();

  NodeId from_;
  NodeId to_;
  Config cfg_;
  std::vector<std::unique_ptr<Connector>> heads_;
  std::vector<std::unique_ptr<Connector>> tails_;
  std::unique_ptr<PacketQueue> queue_;
  std::unique_ptr<LinkTransmitter> tx_;
  Connector* endpoint_ = nullptr;
  DropHandler drop_handler_;
};

}  // namespace mafic::sim
