#pragma once

/// \file mafic_filter.hpp
/// The MAFIC datapath element inside the discrete-event simulator: an
/// adapter at the head of an ingress SimplexLink of an Attack-Transit
/// Router — before the link queue, where the paper's ATR drops (sections
/// III–IV) — that feeds packets to a core::ShardedFilter of `num_shards`
/// simulator-agnostic FilterEngines (filter_engine.hpp), partitioned by
/// flow-key hash. One shard is the scalar ATR; N shards model a
/// multi-core one and decide exactly as one engine does, because every
/// per-flow quantity (admission times, half-window counts, probe
/// schedules, Pd coins) depends only on that flow's own packets.
///
/// The adapter contributes exactly the simulator bindings, shared by
/// every shard:
///   * Clock        -> Simulator::now()
///   * TimerService -> Simulator::schedule_timer_at / cancel / reschedule
///                     (the shared hierarchical wheel; the sim is
///                     single-threaded, so shards can share it)
///   * ProbeSink    -> Prober, which crafts duplicate-ACK packets and
///                     sends them out of the ATR node. Packets classify
///                     in arrival order, so every shard schedules its
///                     probe timers in arrival order on the shared wheel
///                     and the merged probe stream hits the wire exactly
///                     as one engine would emit it.
/// plus the InlineFilter verdict mapping and the DefenseActuator control
/// surface the pushback coordinator drives.
///
/// Capacity caveat: per-shard tables come from the config verbatim, so N
/// shards hold N times the flows — keep working sets under the
/// single-shard bounds when comparing shard counts.

#include <cstdint>
#include <utility>
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

class MaficFilter final : public sim::InlineFilter, public DefenseActuator {
 public:
  /// `num_shards` must be a power of two >= 1 (the ShardedFilter
  /// constructor throws std::invalid_argument otherwise); 1 is the
  /// scalar ATR.
  MaficFilter(sim::Simulator* sim, sim::PacketFactory* factory,
              sim::Node* atr_node, MaficConfig cfg,
              const AddressPolicy* policy, std::size_t num_shards = 1);

  // --- DefenseActuator ---
  void activate(const VictimSet& victims) override {
    sharded_.activate(victims);
  }
  void refresh() override { sharded_.refresh(); }
  void deactivate() override { sharded_.deactivate(); }
  /// Weighted per-victim SFT quotas, fanned out to every shard engine and
  /// consumed by the next activate().
  void set_victim_weights(
      const std::vector<std::pair<util::Addr, double>>& w) {
    sharded_.set_victim_weights(w);
  }
  bool active() const noexcept override { return sharded_.active(); }

  /// Installs the callback on every shard engine. Callbacks must not
  /// mutate the filter itself (activate/deactivate) mid-inspection.
  void set_offered_callback(const FilterEngine::OfferedCallback& cb);
  void set_classification_callback(
      const FilterEngine::ClassificationCallback& cb);

  std::size_t num_shards() const noexcept { return sharded_.shard_count(); }
  const ShardedFilter& sharded() const noexcept { return sharded_; }
  const FilterEngine& engine(std::size_t i) const noexcept {
    return sharded_.engine(i);
  }
  const Prober& prober() const noexcept { return prober_; }

  /// Engine stats summed across shards.
  FilterEngine::Stats stats() const { return sharded_.aggregate_stats(); }
  /// Flow-table stats summed across shards.
  FlowTables::Stats tables_stats() const {
    return sharded_.aggregate_tables_stats();
  }
  /// Per-victim decision tally for `victim`, summed across shards.
  FilterEngine::VictimStats victim_stats_for(util::Addr victim) const {
    return sharded_.victim_stats_for(victim);
  }
  /// Probe requests shard `i`'s engine issued.
  std::uint64_t shard_probes(std::size_t i) const noexcept {
    return sharded_.engine(i).stats().probes_issued;
  }

 protected:
  Decision inspect(sim::Packet& p) override;

 private:
  SimClock clock_;
  SimTimerService timers_;
  Prober prober_;
  ShardedFilter sharded_;
};

}  // namespace mafic::core
