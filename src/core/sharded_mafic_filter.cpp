#include "core/sharded_mafic_filter.hpp"

namespace mafic::core {

ShardedMaficFilter::ShardedMaficFilter(sim::Simulator* sim,
                                       sim::PacketFactory* factory,
                                       sim::Node* atr_node,
                                       std::size_t num_shards,
                                       MaficConfig cfg,
                                       const AddressPolicy* policy,
                                       std::uint64_t seed)
    : atr_node_(atr_node),
      clock_(sim),
      timers_(sim),
      prober_(sim, factory, atr_node, cfg),
      shard_sinks_(ShardedFilter::usable_shard_count(num_shards)),
      sharded_(num_shards, cfg, policy, seed, [this](std::size_t i) {
        shard_sinks_[i].wire = &prober_;
        return ShardedFilter::ShardSeams{&clock_, &timers_,
                                         &shard_sinks_[i]};
      }) {}

sim::NodeId ShardedMaficFilter::atr_node_id() const noexcept {
  return atr_node_->id();
}

void ShardedMaficFilter::set_offered_callback(
    const FilterEngine::OfferedCallback& cb) {
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    sharded_.engine(i).set_offered_callback(cb);
  }
}

void ShardedMaficFilter::set_classification_callback(
    const FilterEngine::ClassificationCallback& cb) {
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    sharded_.engine(i).set_classification_callback(cb);
  }
}

FlowTables::Stats ShardedMaficFilter::tables_stats() const {
  return sharded_.aggregate_tables_stats();
}

FilterEngine::VictimStats ShardedMaficFilter::victim_stats_for(
    util::Addr victim) const {
  return sharded_.victim_stats_for(victim);
}

sim::InlineFilter::Decision ShardedMaficFilter::inspect(sim::Packet& p) {
  if (max_burst_ == 0) max_burst_ = 1;
  return to_decision(sharded_.inspect(p));
}

void ShardedMaficFilter::inspect_burst(sim::PacketPtr* pkts, std::size_t n,
                                       Decision* out) {
  if (n > max_burst_) max_burst_ = n;
  inspect_burst_via(sharded_, pkts, n, batch_ptrs_, batch_verdicts_, out);
}

}  // namespace mafic::core
