#pragma once

/// \file topology.hpp
/// Topology descriptions and builders. The evaluation topology is a domain
/// of N core routers (paper Table II: N = 40, swept 20-160 in Figs. 5c/6c)
/// with one victim behind a last-hop router, legitimate hosts and zombies
/// behind ingress routers, and a connected random core.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/network.hpp"
#include "util/ip.hpp"
#include "util/rng.hpp"

namespace mafic::topology {

struct DomainConfig {
  std::size_t router_count = 40;

  // Core mesh: random spanning tree + extra chords for path diversity.
  double extra_edge_fraction = 0.5;  ///< chords as a fraction of N
  double core_bandwidth_bps = 100e6;
  double core_delay_min_s = 0.002;
  double core_delay_max_s = 0.006;
  std::size_t core_queue_packets = 200;

  // Host access links.
  double access_bandwidth_bps = 20e6;
  double access_delay_s = 0.001;
  std::size_t access_queue_packets = 100;

  // The victim's last-hop link is the contended resource.
  double victim_bandwidth_bps = 10e6;
  double victim_delay_s = 0.001;
  std::size_t victim_queue_packets = 100;
};

/// One host attached to an ingress router via a duplex access link.
struct AccessLink {
  sim::NodeId router = sim::kInvalidNode;
  sim::NodeId host = sim::kInvalidNode;
  sim::SimplexLink* uplink = nullptr;    ///< host -> router (core ingress)
  sim::SimplexLink* downlink = nullptr;  ///< router -> host (core egress)
};

/// A built domain. Non-owning views into the Network plus the address
/// bookkeeping MAFIC's address policy consults.
class Domain {
 public:
  Domain(sim::Network* net, util::Rng rng, DomainConfig cfg);

  /// Builds the router core and the victim. Hosts are attached afterwards
  /// with attach_host(); call net->build_routes() when done.
  void build_core();

  /// Attaches a new host behind `router` (default: random non-victim
  /// ingress router). Returns the access link record.
  AccessLink& attach_host(std::optional<sim::NodeId> router = std::nullopt);

  sim::Network& net() noexcept { return *net_; }
  const DomainConfig& config() const noexcept { return cfg_; }

  const std::vector<sim::NodeId>& routers() const noexcept {
    return routers_;
  }
  sim::NodeId victim_router() const noexcept { return victim_router_; }
  sim::NodeId victim_host() const noexcept { return victim_host_; }
  util::Addr victim_addr() const noexcept;

  const std::vector<AccessLink>& access_links() const noexcept {
    return access_;
  }
  const AccessLink& victim_access() const noexcept { return victim_access_; }

  /// Registered subnets + allocated hosts; MAFIC's address-legality policy
  /// consults this.
  const util::AddressValidator& validator() const noexcept {
    return validator_;
  }

  /// All allocated (reachable) host addresses except the victim — the pool
  /// a spoofing attacker draws "legitimate" addresses from.
  const std::vector<util::Addr>& host_addresses() const noexcept {
    return host_addrs_;
  }

  /// A legal-but-never-allocated subnet (spoofed "unreachable" sources)
  /// and an unregistered one (spoofed "illegal" sources).
  util::Subnet unreachable_subnet() const noexcept { return unreachable_; }
  util::Subnet illegal_subnet() const noexcept { return illegal_; }

  /// Ingress routers eligible to host attackers/clients (all but victim's).
  std::vector<sim::NodeId> ingress_routers() const;

 private:
  util::Addr next_router_addr();

  sim::Network* net_;
  util::Rng rng_;
  DomainConfig cfg_;

  std::vector<sim::NodeId> routers_;
  sim::NodeId victim_router_ = sim::kInvalidNode;
  sim::NodeId victim_host_ = sim::kInvalidNode;
  AccessLink victim_access_;

  std::vector<AccessLink> access_;
  std::vector<util::Addr> host_addrs_;
  util::AddressValidator validator_;
  std::vector<util::SubnetAllocator> host_allocators_;  // one per router
  util::Subnet unreachable_{};
  util::Subnet illegal_{};
  unsigned router_addr_suffix_ = 1;
};

/// Small fixed topology for unit tests and the quickstart example:
/// n_left hosts -- left router == bottleneck ==> right router -- n_right
/// hosts.
struct Dumbbell {
  sim::NodeId left_router = sim::kInvalidNode;
  sim::NodeId right_router = sim::kInvalidNode;
  std::vector<sim::NodeId> left_hosts;
  std::vector<sim::NodeId> right_hosts;
  sim::SimplexLink* bottleneck_forward = nullptr;   ///< left -> right
  sim::SimplexLink* bottleneck_backward = nullptr;  ///< right -> left
};

struct DumbbellConfig {
  std::size_t left_hosts = 2;
  std::size_t right_hosts = 1;
  double access_bandwidth_bps = 10e6;
  double access_delay_s = 0.002;
  double bottleneck_bandwidth_bps = 5e6;
  double bottleneck_delay_s = 0.020;
  std::size_t bottleneck_queue_packets = 50;
  std::size_t access_queue_packets = 100;
};

Dumbbell build_dumbbell(sim::Network& net, const DumbbellConfig& cfg);

}  // namespace mafic::topology
