#include "sim/node.hpp"

namespace mafic::sim {

Node::Node(NodeId id, util::Addr addr, NodeKind kind)
    : id_(id), addr_(addr), kind_(kind), entry_(this) {}

void Node::bind_port(std::uint16_t port, PacketHandler* handler) {
  ports_[port] = handler;
}

void Node::unbind_port(std::uint16_t port) { ports_.erase(port); }

// maficlint: hot
SimplexLink* Node::route_for(util::Addr dst) const noexcept {
  if (routes_.index == nullptr) return nullptr;  // no build_routes() yet
  const auto it = routes_.index->find(dst);
  // Unknown address, or a node added after the last build_routes().
  if (it == routes_.index->end() || it->second >= routes_.row_size) {
    return nullptr;
  }
  const NodeId d = it->second;
  if (routes_.lone_link == nullptr) return routes_.row[d];
  const bool reached = d == routes_.lone_link->to() ||
                       (d != id_ && routes_.row[d] != nullptr);
  return reached ? routes_.lone_link : nullptr;
}

void Node::send(PacketPtr p) {
  ++stats_.originated;
  if (p->label.dst == addr_) {  // loopback
    deliver_local(std::move(p));
    return;
  }
  SimplexLink* out = route_for(p->label.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    drop(*p, DropReason::kNoRoute);
    return;
  }
  out->entry()->recv(std::move(p));
}

void Node::handle_packet(PacketPtr p) {
  if (p->label.dst == addr_) {
    deliver_local(std::move(p));
    return;
  }
  // Forwarding path.
  if (p->ttl == 0 || --p->ttl == 0) {
    ++stats_.dropped_ttl;
    drop(*p, DropReason::kTtlExpired);
    return;
  }
  SimplexLink* out = route_for(p->label.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    drop(*p, DropReason::kNoRoute);
    return;
  }
  ++stats_.forwarded;
  out->entry()->recv(std::move(p));
}

void Node::deliver_local(PacketPtr p) {
  const auto it = ports_.find(p->label.dport);
  if (it == ports_.end()) {
    // Expected for e.g. probe ACKs aimed at a spoofed third party: the
    // host exists but runs no agent for that connection.
    ++stats_.dropped_unbound;
    drop(*p, DropReason::kUnboundPort);
    return;
  }
  ++stats_.delivered;
  it->second->recv(std::move(p));
}

void Node::drop(const Packet& p, DropReason r) {
  if (drop_handler_) drop_handler_(p, r, id_);
}

}  // namespace mafic::sim
