#include "core/mafic_filter.hpp"

namespace mafic::core {

MaficFilter::MaficFilter(sim::Simulator* sim, sim::PacketFactory* factory,
                         sim::Node* atr_node, MaficConfig cfg,
                         const AddressPolicy* policy)
    : clock_(sim),
      timers_(sim),
      prober_(sim, factory, atr_node, cfg),
      engine_(cfg, &clock_, &timers_, &prober_, policy) {}

sim::InlineFilter::Decision MaficFilter::inspect(sim::Packet& p) {
  return to_decision(engine_.inspect(p));
}

}  // namespace mafic::core
