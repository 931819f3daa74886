#include "core/mafic_filter.hpp"

namespace mafic::core {

MaficFilter::MaficFilter(sim::Simulator* sim, sim::PacketFactory* factory,
                         sim::Node* atr_node, MaficConfig cfg,
                         const AddressPolicy* policy, std::size_t num_shards)
    : clock_(sim),
      timers_(sim),
      prober_(sim, factory, atr_node, cfg),
      sharded_(num_shards, cfg, policy, [this](std::size_t) {
        return ShardedFilter::ShardSeams{&clock_, &timers_, &prober_};
      }) {}

void MaficFilter::set_offered_callback(
    const FilterEngine::OfferedCallback& cb) {
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    sharded_.engine(i).set_offered_callback(cb);
  }
}

void MaficFilter::set_classification_callback(
    const FilterEngine::ClassificationCallback& cb) {
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    sharded_.engine(i).set_classification_callback(cb);
  }
}

sim::InlineFilter::Decision MaficFilter::inspect(sim::Packet& p) {
  return to_decision(sharded_.inspect(p));
}

}  // namespace mafic::core
