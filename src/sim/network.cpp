#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

namespace mafic::sim {

Node* Network::add_node(util::Addr addr, NodeKind kind) {
  if (by_addr_.contains(addr)) {
    throw std::invalid_argument("Network: duplicate node address " +
                                util::format_addr(addr));
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, addr, kind));
  by_addr_.emplace(addr, id);
  if (drop_handler_) nodes_.back()->set_drop_handler(drop_handler_);
  return nodes_.back().get();
}

SimplexLink* Network::add_simplex(NodeId from, NodeId to,
                                  SimplexLink::Config cfg) {
  assert(from < nodes_.size() && to < nodes_.size());
  links_.push_back(std::make_unique<SimplexLink>(sim_, from, to, cfg));
  SimplexLink* l = links_.back().get();
  l->set_endpoint(nodes_[to]->entry());
  if (drop_handler_) l->set_drop_handler(drop_handler_);
  by_endpoints_[link_key(from, to)] = l;
  return l;
}

std::pair<SimplexLink*, SimplexLink*> Network::add_duplex(
    NodeId a, NodeId b, SimplexLink::Config cfg) {
  return {add_simplex(a, b, cfg), add_simplex(b, a, cfg)};
}

Node* Network::node_by_addr(util::Addr a) noexcept {
  const auto it = by_addr_.find(a);
  return it == by_addr_.end() ? nullptr : nodes_[it->second].get();
}

SimplexLink* Network::find_link(NodeId from, NodeId to) noexcept {
  const auto it = by_endpoints_.find(link_key(from, to));
  return it == by_endpoints_.end() ? nullptr : it->second;
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();

  // Adjacency: out-links per node.
  std::vector<std::vector<SimplexLink*>> out(n);
  for (const auto& l : links_) out[l->from()].push_back(l.get());

  // Dijkstra from a node with a lone out-link can only ever pick that link
  // as a first hop, so such a node needs no row of its own when its
  // neighbour has one: it reaches the neighbour plus whatever the
  // neighbour reaches. Every other node gets a row.
  constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();
  const auto lone_link = [&](std::size_t v) -> SimplexLink* {
    return out[v].size() == 1 && out[out[v][0]->to()].size() != 1
               ? out[v][0]
               : nullptr;
  };
  std::vector<std::size_t> row_of(n, kNoRow);
  std::size_t rows = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (lone_link(v) == nullptr) row_of[v] = rows++;
  }
  route_rows_.assign(rows * n, nullptr);
  const auto row = [&](std::size_t v) { return &route_rows_[row_of[v] * n]; };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;

  for (std::size_t src = 0; src < n; ++src) {
    if (row_of[src] == kNoRow) continue;
    SimplexLink** first_hop = row(src);
    std::fill(dist.begin(), dist.end(), kInf);
    dist[src] = 0.0;
    pq.emplace(0.0, static_cast<NodeId>(src));
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (SimplexLink* l : out[u]) {
        const NodeId v = l->to();
        const double nd = d + l->config().delay_s;
        if (nd < dist[v]) {
          dist[v] = nd;
          first_hop[v] = (u == src) ? l : first_hop[u];
          pq.emplace(nd, v);
        }
      }
    }

    nodes_[src]->routes_ = Node::Routes{
        &by_addr_, first_hop, n, nullptr,
        n - static_cast<std::size_t>(std::count(first_hop, first_hop + n,
                                                nullptr))};
  }

  for (std::size_t v = 0; v < n; ++v) {
    SimplexLink* l = lone_link(v);
    if (l == nullptr) continue;
    const NodeId nb = l->to();
    SimplexLink* const* nb_row = row(nb);
    // The neighbour itself, plus its row's destinations other than v.
    nodes_[v]->routes_ = Node::Routes{
        &by_addr_, nb_row, n, l,
        1 + nodes_[nb]->routes_.count - (nb_row[v] != nullptr ? 1 : 0)};
  }
}

void Network::set_drop_handler(DropHandler h) {
  drop_handler_ = std::move(h);
  for (auto& node : nodes_) node->set_drop_handler(drop_handler_);
  for (auto& link : links_) link->set_drop_handler(drop_handler_);
}

}  // namespace mafic::sim
