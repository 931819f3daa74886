#include "topology/topology.hpp"

#include <cassert>
#include <stdexcept>

namespace mafic::topology {

namespace {
// Address plan:
//   10.0.x.y        router loopbacks            (registered, core)
//   172.16.r.0/24   hosts behind router r       (registered, allocated)
//   172.31.0.0/16   registered but never allocated -> "unreachable"
//   203.0.113.0/24  never registered            -> "illegal"
constexpr util::Subnet kRouterSubnet{util::make_addr(10, 0, 0, 0), 16};
constexpr util::Subnet kUnreachable{util::make_addr(172, 31, 0, 0), 16};
constexpr util::Subnet kIllegal{util::make_addr(203, 0, 113, 0), 24};

util::Subnet host_subnet_for(std::size_t router_index) {
  // 172.16.0.0/12 carved into /24s: supports 4096 routers.
  const auto hi = static_cast<unsigned>(16 + router_index / 256);
  const auto lo = static_cast<unsigned>(router_index % 256);
  return util::Subnet{util::make_addr(172, hi, lo, 0), 24};
}
}  // namespace

Domain::Domain(sim::Network* net, util::Rng rng, DomainConfig cfg)
    : net_(net), rng_(rng), cfg_(cfg), unreachable_(kUnreachable),
      illegal_(kIllegal) {}

util::Addr Domain::next_router_addr() {
  const unsigned s = router_addr_suffix_++;
  return util::make_addr(10, 0, (s >> 8) & 0xff, s & 0xff);
}

void Domain::build_core() {
  if (!routers_.empty()) {
    throw std::logic_error("Domain::build_core called twice");
  }
  if (cfg_.router_count < 2) {
    throw std::invalid_argument("domain needs at least 2 routers");
  }

  validator_.add_subnet(kRouterSubnet);
  validator_.add_subnet(kUnreachable);

  // Routers + per-router host subnets.
  routers_.reserve(cfg_.router_count);
  host_allocators_.reserve(cfg_.router_count);
  for (std::size_t i = 0; i < cfg_.router_count; ++i) {
    sim::Node* r = net_->add_router(next_router_addr());
    routers_.push_back(r->id());
    const util::Subnet hs = host_subnet_for(i);
    validator_.add_subnet(hs);
    host_allocators_.emplace_back(hs);
  }

  // Random spanning tree: router i>0 connects to a uniformly random
  // earlier router, guaranteeing connectivity.
  auto core_cfg = [&] {
    sim::SimplexLink::Config c;
    c.bandwidth_bps = cfg_.core_bandwidth_bps;
    c.delay_s = rng_.uniform(cfg_.core_delay_min_s, cfg_.core_delay_max_s);
    c.queue_capacity_packets = cfg_.core_queue_packets;
    return c;
  };
  for (std::size_t i = 1; i < routers_.size(); ++i) {
    const auto j = rng_.index(i);
    net_->add_duplex(routers_[i], routers_[j], core_cfg());
  }
  // Extra chords for path diversity.
  const auto extra = static_cast<std::size_t>(
      cfg_.extra_edge_fraction * static_cast<double>(cfg_.router_count));
  for (std::size_t e = 0; e < extra; ++e) {
    const auto a = routers_[rng_.index(routers_.size())];
    const auto b = routers_[rng_.index(routers_.size())];
    if (a == b || net_->find_link(a, b) != nullptr) continue;
    net_->add_duplex(a, b, core_cfg());
  }

  // Victim: host behind router 0 over the contended last-hop link.
  victim_router_ = routers_.front();
  auto victim_alloc = host_allocators_.front().allocate();
  assert(victim_alloc.has_value());
  sim::Node* victim = net_->add_host(*victim_alloc);
  victim_host_ = victim->id();
  validator_.add_host(*victim_alloc);

  sim::SimplexLink::Config vcfg;
  vcfg.bandwidth_bps = cfg_.victim_bandwidth_bps;
  vcfg.delay_s = cfg_.victim_delay_s;
  vcfg.queue_capacity_packets = cfg_.victim_queue_packets;
  auto [down, up] = net_->add_duplex(victim_router_, victim_host_, vcfg);
  victim_access_ =
      AccessLink{victim_router_, victim_host_, /*uplink=*/up,
                 /*downlink=*/down};
}

AccessLink& Domain::attach_host(std::optional<sim::NodeId> router) {
  if (routers_.empty()) {
    throw std::logic_error("attach_host before build_core");
  }
  sim::NodeId r = router.value_or(sim::kInvalidNode);
  if (r == sim::kInvalidNode) {
    // Any router except the victim's last hop.
    r = routers_[1 + rng_.index(routers_.size() - 1)];
  }
  // Find the allocator for this router.
  std::size_t idx = 0;
  while (idx < routers_.size() && routers_[idx] != r) ++idx;
  if (idx == routers_.size()) {
    throw std::invalid_argument("attach_host: unknown router id");
  }

  auto addr = host_allocators_[idx].allocate();
  if (!addr) throw std::runtime_error("host subnet exhausted");
  sim::Node* h = net_->add_host(*addr);
  validator_.add_host(*addr);
  host_addrs_.push_back(*addr);

  sim::SimplexLink::Config acfg;
  acfg.bandwidth_bps = cfg_.access_bandwidth_bps;
  acfg.delay_s = cfg_.access_delay_s;
  acfg.queue_capacity_packets = cfg_.access_queue_packets;
  sim::SimplexLink* down = net_->add_simplex(r, h->id(), acfg);
  sim::SimplexLink* up = net_->add_simplex(h->id(), r, acfg);
  access_.push_back(AccessLink{r, h->id(), /*uplink=*/up, /*downlink=*/down});
  return access_.back();
}

util::Addr Domain::victim_addr() const noexcept {
  return net_->node(victim_host_)->addr();
}

std::vector<sim::NodeId> Domain::ingress_routers() const {
  std::vector<sim::NodeId> out;
  for (const auto r : routers_) {
    if (r != victim_router_) out.push_back(r);
  }
  return out;
}

Dumbbell build_dumbbell(sim::Network& net, const DumbbellConfig& cfg) {
  Dumbbell d;
  sim::Node* lr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::Node* rr = net.add_router(util::make_addr(10, 0, 0, 2));
  d.left_router = lr->id();
  d.right_router = rr->id();

  sim::SimplexLink::Config bn;
  bn.bandwidth_bps = cfg.bottleneck_bandwidth_bps;
  bn.delay_s = cfg.bottleneck_delay_s;
  bn.queue_capacity_packets = cfg.bottleneck_queue_packets;
  auto [fwd, bwd] = net.add_duplex(d.left_router, d.right_router, bn);
  d.bottleneck_forward = fwd;
  d.bottleneck_backward = bwd;

  sim::SimplexLink::Config ac;
  ac.bandwidth_bps = cfg.access_bandwidth_bps;
  ac.delay_s = cfg.access_delay_s;
  ac.queue_capacity_packets = cfg.access_queue_packets;

  for (std::size_t i = 0; i < cfg.left_hosts; ++i) {
    sim::Node* h =
        net.add_host(util::make_addr(172, 16, 0, static_cast<unsigned>(i + 1)));
    net.add_duplex(d.left_router, h->id(), ac);
    d.left_hosts.push_back(h->id());
  }
  for (std::size_t i = 0; i < cfg.right_hosts; ++i) {
    sim::Node* h =
        net.add_host(util::make_addr(172, 17, 0, static_cast<unsigned>(i + 1)));
    net.add_duplex(d.right_router, h->id(), ac);
    d.right_hosts.push_back(h->id());
  }
  net.build_routes();
  return d;
}

}  // namespace mafic::topology
