#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace mafic::sim {
namespace {

class CountingHandler final : public PacketHandler {
 public:
  void recv(PacketPtr p) override {
    ++count;
    last_uid = p->uid;
  }
  int count = 0;
  std::uint64_t last_uid = 0;
};

SimplexLink::Config fast() {
  SimplexLink::Config c;
  c.bandwidth_bps = 1e9;
  c.delay_s = 0.001;
  return c;
}

SimplexLink::Config slow_path() {
  SimplexLink::Config c;
  c.bandwidth_bps = 1e9;
  c.delay_s = 0.1;  // routing should avoid this
  return c;
}

PacketPtr victim_packet(PacketFactory& f, util::Addr src, util::Addr dst,
                        std::uint16_t dport = 80) {
  auto p = f.make();
  p->label = FlowLabel{src, dst, 1000, dport};
  p->size_bytes = 100;
  return p;
}

class NodeRoutingTest : public ::testing::Test {
 protected:
  // a - r1 - r2 - b, plus a slow direct link r1 - r3 - r2 alternative.
  void SetUp() override {
    net = std::make_unique<Network>(&sim);
    a = net->add_host(util::make_addr(172, 16, 0, 1));
    b = net->add_host(util::make_addr(172, 17, 0, 1));
    r1 = net->add_router(util::make_addr(10, 0, 0, 1));
    r2 = net->add_router(util::make_addr(10, 0, 0, 2));
    r3 = net->add_router(util::make_addr(10, 0, 0, 3));
    net->add_duplex(a->id(), r1->id(), fast());
    net->add_duplex(r1->id(), r2->id(), fast());
    net->add_duplex(r2->id(), b->id(), fast());
    net->add_duplex(r1->id(), r3->id(), slow_path());
    net->add_duplex(r3->id(), r2->id(), slow_path());
    net->build_routes();
  }

  Simulator sim;
  PacketFactory factory;
  std::unique_ptr<Network> net;
  Node *a{}, *b{}, *r1{}, *r2{}, *r3{};
};

TEST_F(NodeRoutingTest, EndToEndDelivery) {
  CountingHandler h;
  b->bind_port(80, &h);
  a->send(victim_packet(factory, a->addr(), b->addr()));
  sim.run();
  EXPECT_EQ(h.count, 1);
  EXPECT_EQ(b->stats().delivered, 1u);
}

TEST_F(NodeRoutingTest, ShortestPathAvoidsSlowDetour) {
  CountingHandler h;
  b->bind_port(80, &h);
  a->send(victim_packet(factory, a->addr(), b->addr()));
  sim.run();
  // Fast path: 3 hops x 1ms (+ negligible tx) << detour 0.1s legs.
  EXPECT_LT(sim.now(), 0.01);
  EXPECT_EQ(r3->stats().forwarded, 0u);
  EXPECT_EQ(r1->stats().forwarded, 1u);
  EXPECT_EQ(r2->stats().forwarded, 1u);
}

TEST_F(NodeRoutingTest, RouteForKnowsNextHop) {
  SimplexLink* out = r1->route_for(b->addr());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->to(), r2->id());
}

TEST_F(NodeRoutingTest, UnboundPortDropsWithReason) {
  int unbound = 0;
  net->set_drop_handler([&](const Packet&, DropReason r, NodeId where) {
    if (r == DropReason::kUnboundPort) {
      ++unbound;
      EXPECT_EQ(where, b->id());
    }
  });
  a->send(victim_packet(factory, a->addr(), b->addr(), 9999));
  sim.run();
  EXPECT_EQ(unbound, 1);
  EXPECT_EQ(b->stats().dropped_unbound, 1u);
}

TEST_F(NodeRoutingTest, NoRouteDrops) {
  int noroute = 0;
  net->set_drop_handler([&](const Packet&, DropReason r, NodeId) {
    noroute += (r == DropReason::kNoRoute);
  });
  a->send(victim_packet(factory, a->addr(), util::make_addr(99, 9, 9, 9)));
  sim.run();
  EXPECT_EQ(noroute, 1);
}

TEST_F(NodeRoutingTest, TtlExpiryDrops) {
  int ttl_drops = 0;
  net->set_drop_handler([&](const Packet&, DropReason r, NodeId) {
    ttl_drops += (r == DropReason::kTtlExpired);
  });
  auto p = victim_packet(factory, a->addr(), b->addr());
  p->ttl = 1;  // dies at the first router
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(ttl_drops, 1);
  EXPECT_EQ(r1->stats().dropped_ttl, 1u);
}

TEST_F(NodeRoutingTest, LoopbackDeliversLocally) {
  CountingHandler h;
  a->bind_port(80, &h);
  a->send(victim_packet(factory, a->addr(), a->addr()));
  sim.run();
  EXPECT_EQ(h.count, 1);
}

TEST_F(NodeRoutingTest, PortRebindReplacesHandler) {
  CountingHandler h1, h2;
  b->bind_port(80, &h1);
  b->bind_port(80, &h2);
  a->send(victim_packet(factory, a->addr(), b->addr()));
  sim.run();
  EXPECT_EQ(h1.count, 0);
  EXPECT_EQ(h2.count, 1);
}

TEST_F(NodeRoutingTest, UnbindStopsDelivery) {
  CountingHandler h;
  b->bind_port(80, &h);
  b->unbind_port(80);
  a->send(victim_packet(factory, a->addr(), b->addr()));
  sim.run();
  EXPECT_EQ(h.count, 0);
}

TEST_F(NodeRoutingTest, NetworkLookupHelpers) {
  EXPECT_EQ(net->node_by_addr(a->addr()), a);
  EXPECT_EQ(net->node_by_addr(util::make_addr(1, 1, 1, 1)), nullptr);
  EXPECT_NE(net->find_link(r1->id(), r2->id()), nullptr);
  EXPECT_EQ(net->find_link(a->id(), b->id()), nullptr);
  EXPECT_EQ(net->node_count(), 5u);
  EXPECT_EQ(net->link_count(), 10u);
}

TEST_F(NodeRoutingTest, ForwardingDecrementsTtl) {
  CountingHandler h;
  b->bind_port(80, &h);
  auto p = victim_packet(factory, a->addr(), b->addr());
  p->ttl = 3;  // 2 router hops: exactly enough
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(h.count, 1);
}

TEST_F(NodeRoutingTest, RoutesExistForAllDestinations) {
  // Every node can reach every other node's address.
  for (const auto& from : net->nodes()) {
    for (const auto& to : net->nodes()) {
      if (from->id() == to->id()) continue;
      EXPECT_NE(from->route_for(to->addr()), nullptr)
          << "no route " << from->id() << " -> " << to->id();
    }
  }
}

TEST(NetworkTest, DuplicateAddressThrows) {
  Simulator sim;
  Network net(&sim);
  Node* first = net.add_host(util::make_addr(172, 16, 0, 1));
  EXPECT_THROW(net.add_router(util::make_addr(172, 16, 0, 1)),
               std::invalid_argument);
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(net.node_by_addr(first->addr()), first);
}

// ---------------------------------------------------------------------------
// Exactness of the compact route table against all-pairs routing.
// ---------------------------------------------------------------------------

using RouteMap = std::unordered_map<util::Addr, SimplexLink*>;

/// The reference: Dijkstra over link propagation delays from every node,
/// every answer stored in a per-node destination address -> first-hop map.
std::vector<RouteMap> all_pairs_reference(const Network& net) {
  const std::size_t n = net.node_count();
  std::vector<std::vector<SimplexLink*>> out(n);
  for (const auto& l : net.links()) out[l->from()].push_back(l.get());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<RouteMap> routes(n);
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<double> dist(n, kInf);
    std::vector<SimplexLink*> first_hop(n, nullptr);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;

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
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src || first_hop[dst] == nullptr) continue;
      routes[src][net.node(static_cast<NodeId>(dst))->addr()] = first_hop[dst];
    }
  }
  return routes;
}

constexpr util::Addr kUnknownAddr = util::make_addr(203, 0, 113, 77);

/// Number of route_for() / route_count() answers that differ from `ref`,
/// for every node against every node's address (its own included) and an
/// address no node has. Nodes beyond `ref` must have no routes at all.
int mismatches(const Network& net, const std::vector<RouteMap>& ref) {
  const RouteMap none;
  int bad = 0;
  const auto report = [&](const Node& from, const std::string& what) {
    if (++bad <= 10) ADD_FAILURE() << "node " << from.id() << ": " << what;
  };
  for (const auto& from : net.nodes()) {
    const RouteMap& want = from->id() < ref.size() ? ref[from->id()] : none;
    if (from->route_count() != want.size()) {
      report(*from, "route_count " + std::to_string(from->route_count()) +
                        ", want " + std::to_string(want.size()));
    }
    std::vector<util::Addr> dsts{kUnknownAddr};
    for (const auto& to : net.nodes()) dsts.push_back(to->addr());
    for (const util::Addr dst : dsts) {
      const auto it = want.find(dst);
      if (from->route_for(dst) != (it == want.end() ? nullptr : it->second)) {
        report(*from, "route_for " + util::format_addr(dst));
      }
    }
  }
  return bad;
}

/// Seeded random network covering every routing shape: a router core with
/// chords (delays from {1, 2, 3}/1024 s, so equal-delay ties are exact),
/// parallel and one-way links, hosts on duplex access links, a stub router
/// with one out-link, a host behind a host, a sink with no out-links, a
/// node with no links, and a second component the core reaches one way or
/// not at all. Addresses are 10.<tag>.x.y, so parts with different tags
/// can share a network. Returns the core routers.
std::vector<NodeId> add_random_network(Network& net, util::Rng& rng,
                                       unsigned tag) {
  unsigned next = 0;
  const auto addr = [&] {
    ++next;
    return util::make_addr(10, tag, next >> 8, next & 0xff);
  };
  const auto link = [&] {
    SimplexLink::Config c;
    c.delay_s = static_cast<double>(1 + rng.index(3)) / 1024.0;
    return c;
  };
  const auto host = [&] { return net.add_host(addr())->id(); };
  const auto router = [&] { return net.add_router(addr())->id(); };

  std::vector<NodeId> core;
  const std::size_t routers = 4 + rng.index(9);
  for (std::size_t i = 0; i < routers; ++i) {
    core.push_back(router());
    if (i > 0) net.add_duplex(core[i], core[rng.index(i)], link());
  }
  const auto pick = [&] { return core[rng.index(core.size())]; };
  net.add_duplex(core[1], core[0], link());  // parallel to a tree edge
  for (std::size_t e = 0; e < routers; ++e) {
    const NodeId a = pick();
    const NodeId b = pick();
    if (a == b) continue;
    if (rng.bernoulli(0.25)) {
      net.add_simplex(a, b, link());
    } else {
      net.add_duplex(a, b, link());
    }
  }

  const std::size_t hosts = 3 + rng.index(6);
  for (std::size_t i = 0; i < hosts; ++i) {
    const NodeId h = host();
    net.add_duplex(h, pick(), link());
  }

  const NodeId stub = router();  // one out-link, into the core
  net.add_duplex(stub, pick(), link());

  // Host behind a host: `outer`'s lone link leads to `inner`, whose own
  // lone link leads into the core; the core reaches `outer` one way.
  const NodeId inner = host();
  net.add_duplex(inner, pick(), link());
  const NodeId outer = host();
  net.add_simplex(outer, inner, link());
  net.add_simplex(pick(), outer, link());

  const NodeId sink = host();  // reachable, but no out-links
  net.add_simplex(pick(), sink, link());
  host();  // no links at all

  // Second component: two routers with a host, and a host pair.
  const NodeId c1 = router();
  const NodeId c2 = router();
  net.add_duplex(c1, c2, link());
  const NodeId c_host = host();
  net.add_duplex(c_host, c1, link());
  const NodeId p1 = host();
  const NodeId p2 = host();
  net.add_duplex(p1, p2, link());
  if (rng.bernoulli(0.5)) net.add_simplex(pick(), c2, link());
  return core;
}

TEST(CompactRoutesTest, RandomGraphsMatchAllPairsReference) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    Simulator sim;
    Network net(&sim);
    util::Rng rng(seed);
    add_random_network(net, rng, 1);
    net.build_routes();
    EXPECT_EQ(mismatches(net, all_pairs_reference(net)), 0)
        << "seed " << seed;
  }
}

TEST(CompactRoutesTest, RebuildAfterAddingLinksAndNodes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Simulator sim;
    Network net(&sim);
    util::Rng rng(seed);
    const std::vector<NodeId> first = add_random_network(net, rng, 1);
    net.build_routes();
    const std::vector<RouteMap> before = all_pairs_reference(net);
    ASSERT_EQ(mismatches(net, before), 0) << "seed " << seed;

    // Grow the network: a second part bridged to the first, and a new
    // chord inside the first.
    const std::vector<NodeId> second = add_random_network(net, rng, 2);
    SimplexLink::Config c;
    c.delay_s = 1.0 / 1024.0;
    net.add_duplex(first.back(), second.front(), c);
    net.add_duplex(first.front(), first.back(), c);

    // Until the rebuild, old nodes keep their routes; new nodes have none.
    EXPECT_EQ(mismatches(net, before), 0) << "seed " << seed;
    net.build_routes();
    EXPECT_EQ(mismatches(net, all_pairs_reference(net)), 0)
        << "seed " << seed;
  }
}

TEST(CompactRoutesTest, DomainMatchesAllPairsReference) {
  Simulator sim;
  Network net(&sim);
  topology::DomainConfig cfg;
  cfg.router_count = 12;
  topology::Domain domain(&net, util::Rng(7), cfg);
  domain.build_core();
  for (int i = 0; i < 60; ++i) domain.attach_host();
  net.build_routes();
  EXPECT_EQ(mismatches(net, all_pairs_reference(net)), 0);
  for (const auto& node : net.nodes()) {
    EXPECT_EQ(node->route_count(), net.node_count() - 1);
  }
}

}  // namespace
}  // namespace mafic::sim
