#pragma once

/// \file node.hpp
/// Hosts and routers. A node owns an address, a port-demux table for local
/// agents, and its view of the static next-hop routes (destination address
/// -> outgoing simplex link) that Network::build_routes() computes.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "sim/connector.hpp"
#include "sim/link.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/ip.hpp"

namespace mafic::sim {

enum class NodeKind : std::uint8_t { kHost, kRouter };

/// Anything that can receive locally delivered packets (transport agents).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void recv(PacketPtr p) = 0;
};

class Node {
 public:
  Node(NodeId id, util::Addr addr, NodeKind kind);

  NodeId id() const noexcept { return id_; }
  util::Addr addr() const noexcept { return addr_; }
  NodeKind kind() const noexcept { return kind_; }
  bool is_router() const noexcept { return kind_ == NodeKind::kRouter; }

  /// Binds an agent to a local port (non-owning). Replaces any previous
  /// binding on that port.
  void bind_port(std::uint16_t port, PacketHandler* handler);
  void unbind_port(std::uint16_t port);

  /// Next-hop link towards the node with address `dst`, as of the last
  /// Network::build_routes(); nullptr for this node's own address, an
  /// unknown address, or a node it cannot reach.
  SimplexLink* route_for(util::Addr dst) const noexcept;
  /// Number of destination nodes route_for() has a next hop for.
  std::size_t route_count() const noexcept { return routes_.count; }

  /// Origination or forwarding: looks up the route and pushes the packet
  /// into the outgoing link. Local destinations are delivered directly.
  void send(PacketPtr p);

  /// Arrival from a link (or loopback). Delivers locally or forwards.
  void handle_packet(PacketPtr p);

  /// Ingress connector handed to incoming links as their endpoint.
  Connector* entry() noexcept { return &entry_; }

  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }

  struct Stats {
    std::uint64_t originated = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_unbound = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  friend class Network;  // build_routes() fills in routes_

  /// This node's view of the static routes. A destination address resolves
  /// to a NodeId through the network's shared index, then indexes a dense
  /// next-hop row. A node with its own row reads the answer there. A node
  /// whose lone out-link leads to a node with a row stores only that link:
  /// it reaches the neighbour and whatever else the neighbour's row
  /// reaches except itself, all through the link.
  struct Routes {
    const std::unordered_map<util::Addr, NodeId>* index = nullptr;
    SimplexLink* const* row = nullptr;  ///< own row, or the neighbour's
    std::size_t row_size = 0;           ///< node count at build time
    SimplexLink* lone_link = nullptr;   ///< set iff `row` is the neighbour's
    std::size_t count = 0;
  };

  class Entry final : public Connector {
   public:
    explicit Entry(Node* n) : node_(n) {}
    void recv(PacketPtr p) override { node_->handle_packet(std::move(p)); }

   private:
    Node* node_;
  };

  void deliver_local(PacketPtr p);
  void drop(const Packet& p, DropReason r);

  NodeId id_;
  util::Addr addr_;
  NodeKind kind_;
  Entry entry_;
  std::unordered_map<std::uint16_t, PacketHandler*> ports_;
  Routes routes_;
  DropHandler drop_handler_;
  Stats stats_;
};

}  // namespace mafic::sim
