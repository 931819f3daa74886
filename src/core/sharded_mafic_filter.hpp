#pragma once

/// \file sharded_mafic_filter.hpp
/// The multi-core MAFIC datapath inside the discrete-event simulator: a
/// sim adapter that mounts a core::ShardedFilter (N engines partitioned
/// by flow-key hash) behind the same seams MaficFilter uses —
///   Clock        -> the simulation clock (one SimClock, all shards)
///   TimerService -> the simulator's shared hierarchical wheel (the sim
///                   is single-threaded, so shards can share it; a
///                   deployed shard owns a private wheel instead)
///   ProbeSink    -> one ShardProbeSink per shard, each forwarding to a
///                   shared Prober that crafts real duplicate-ACK packets
///                   out of the ATR node. Because bursts are classified
///                   in span order (below), every shard schedules its
///                   probe timers in packet-arrival order on the shared
///                   wheel, so the per-shard probe streams merge onto the
///                   wire in arrival order — exactly as one engine would
///                   emit them. The sinks keep per-shard counts.
///
/// Placement: unlike the scalar MaficFilter (head of the ingress uplink,
/// i.e. before the link queue), this adapter is installed at the
/// RECEIVING end of the uplink (SimplexLink::add_tail_tap) — the ATR
/// router's ingress side — because that is where the link's burst mode
/// delivers coalesced departure spans. Bursts run the serial in-order
/// walk (ShardedFilter::inspect_batch: one partition pass, windowed
/// prefetch, sequential classification by home engine).
///
/// Scalar equivalence: with CoinMode::kPacketHash (a flow's Pd coins
/// depend only on (coin_seed, flow key, packet uid)), every per-flow
/// quantity this adapter computes — admission times, half-window counts,
/// probe schedules, NFT/PDT verdicts — is identical for num_shards = 1
/// and num_shards = N, because all cross-flow coupling is gone: flows
/// never share tables, timers, RTT estimates or coin streams.
/// test_core_sharded_sim pins this end-to-end at fixed seeds; the
/// remaining caveat is capacity (per-shard tables come from the config
/// verbatim, so N shards hold N times the flows — keep working sets
/// under the single-shard bounds when comparing).

#include <cstdint>
#include <vector>

#include "core/actuator.hpp"
#include "core/address_policy.hpp"
#include "core/config.hpp"
#include "core/prober.hpp"
#include "core/sharded_filter.hpp"
#include "core/sim_seams.hpp"
#include "sim/connector.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {

class ShardedMaficFilter final : public sim::InlineFilter,
                                 public DefenseActuator {
 public:
  /// `num_shards` rounds up to a power of two (see
  /// ShardedFilter::usable_shard_count). `seed` derives the per-shard
  /// RNG streams (unused for coins under kPacketHash, which reads
  /// cfg.coin_seed instead).
  ShardedMaficFilter(sim::Simulator* sim, sim::PacketFactory* factory,
                     sim::Node* atr_node, std::size_t num_shards,
                     MaficConfig cfg, const AddressPolicy* policy,
                     std::uint64_t seed);

  // --- DefenseActuator ---
  void activate(const VictimSet& victims) override {
    sharded_.activate(victims);
  }
  void refresh() override { sharded_.refresh(); }
  void deactivate() override { sharded_.deactivate(); }
  /// Weighted per-victim SFT quotas, fanned out to every shard engine.
  void set_victim_weights(
      const std::vector<std::pair<util::Addr, double>>& w) {
    sharded_.set_victim_weights(w);
  }
  bool active() const noexcept override { return sharded_.active(); }

  /// Installs the callback on every shard engine. Callbacks must not
  /// mutate the filter itself (activate/deactivate) mid-burst.
  void set_offered_callback(const FilterEngine::OfferedCallback& cb);
  void set_classification_callback(
      const FilterEngine::ClassificationCallback& cb);

  std::size_t num_shards() const noexcept { return sharded_.shard_count(); }
  ShardedFilter& sharded() noexcept { return sharded_; }
  const ShardedFilter& sharded() const noexcept { return sharded_; }
  const FilterEngine& engine(std::size_t i) const noexcept {
    return sharded_.engine(i);
  }
  const Prober& prober() const noexcept { return prober_; }
  sim::NodeId atr_node_id() const noexcept;

  /// Engine stats summed across shards.
  FilterEngine::Stats stats() const { return sharded_.aggregate_stats(); }
  /// Flow-table stats summed across shards.
  FlowTables::Stats tables_stats() const;
  /// Per-victim decision tally for `victim`, summed across shards.
  FilterEngine::VictimStats victim_stats_for(util::Addr victim) const;
  /// Probe requests shard `i`'s engine issued.
  std::uint64_t shard_probes(std::size_t i) const noexcept {
    return shard_sinks_[i].requested;
  }
  /// Largest burst span inspect_burst has received (diagnostics).
  std::size_t max_burst_seen() const noexcept { return max_burst_; }

 protected:
  Decision inspect(sim::Packet& p) override;
  void inspect_burst(sim::PacketPtr* pkts, std::size_t n,
                     Decision* out) override;

 private:
  /// Per-shard ProbeSink: counts the shard's requests, then forwards to
  /// the shared Prober. Span-ordered classification makes the shared
  /// wheel fire probe timers in admission-arrival order, so the merged
  /// probe stream hits the wire in arrival order.
  struct ShardProbeSink final : ProbeSink {
    Prober* wire = nullptr;
    std::uint64_t requested = 0;
    void send_probe(const sim::FlowLabel& flow) override {
      ++requested;
      wire->send_probe(flow);
    }
  };

  sim::Node* atr_node_;
  SimClock clock_;
  SimTimerService timers_;
  Prober prober_;
  std::vector<ShardProbeSink> shard_sinks_;  ///< one per shard, stable
  ShardedFilter sharded_;

  // inspect_burst scratch (reused; steady state allocates nothing).
  std::vector<const sim::Packet*> batch_ptrs_;
  std::vector<EngineVerdict> batch_verdicts_;
  std::size_t max_burst_ = 0;
};

}  // namespace mafic::core
