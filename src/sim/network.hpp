#pragma once

/// \file network.hpp
/// Container that owns nodes and links, wires link endpoints to node
/// ingress connectors, and computes static shortest-path routes.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace mafic::sim {

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node. Addresses are unique within a network: adding one that
  /// is already taken throws std::invalid_argument.
  Node* add_host(util::Addr addr) { return add_node(addr, NodeKind::kHost); }
  Node* add_router(util::Addr addr) {
    return add_node(addr, NodeKind::kRouter);
  }

  /// Creates a simplex link from -> to and wires its endpoint.
  SimplexLink* add_simplex(NodeId from, NodeId to, SimplexLink::Config cfg);

  /// Creates both directions with the same config.
  std::pair<SimplexLink*, SimplexLink*> add_duplex(NodeId a, NodeId b,
                                                   SimplexLink::Config cfg);

  /// Computes next-hop routes for every (node, destination-node) pair using
  /// Dijkstra over link propagation delays. Must be called after topology
  /// construction and before traffic starts; may be called again after
  /// adding links or nodes. Each route is stored once: a node whose lone
  /// out-link leads to a node with other than one out-link keeps just
  /// that link, every other node a dense next-hop row indexed by NodeId,
  /// and Dijkstra runs only from the nodes with rows.
  void build_routes();

  Node* node(NodeId id) noexcept {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  const Node* node(NodeId id) const noexcept {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  Node* node_by_addr(util::Addr a) noexcept;

  SimplexLink* find_link(NodeId from, NodeId to) noexcept;

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t link_count() const noexcept { return links_.size(); }

  const std::vector<std::unique_ptr<Node>>& nodes() const noexcept {
    return nodes_;
  }
  const std::vector<std::unique_ptr<SimplexLink>>& links() const noexcept {
    return links_;
  }
  std::vector<std::unique_ptr<SimplexLink>>& links() noexcept {
    return links_;
  }

  Simulator* simulator() noexcept { return sim_; }

  /// Installs one drop handler on every node and link (queues + filters).
  void set_drop_handler(DropHandler h);

 private:
  Node* add_node(util::Addr addr, NodeKind kind);
  static std::uint64_t link_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<SimplexLink>> links_;
  std::unordered_map<std::uint64_t, SimplexLink*> by_endpoints_;
  std::unordered_map<util::Addr, NodeId> by_addr_;  // also the route index
  std::vector<SimplexLink*> route_rows_;  // next-hop rows, node_count() each
  DropHandler drop_handler_;
};

}  // namespace mafic::sim
