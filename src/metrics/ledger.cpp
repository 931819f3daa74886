#include "metrics/ledger.hpp"

namespace mafic::metrics {

void PacketLedger::register_flow(const FlowGroundTruth& truth) {
  FlowRecord rec;
  rec.truth = truth;
  // Re-registration overwrites in place and keeps the flow's original
  // position in the iteration order.
  if (flows_.find(truth.id) == flows_.end()) order_.push_back(truth.id);
  flows_[truth.id] = rec;
}

const PacketLedger::FlowRecord* PacketLedger::flow(sim::FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second;
}

void PacketLedger::on_defense_offered(const sim::Packet& p, double now) {
  const auto it = flows_.find(p.flow_id);
  if (it == flows_.end()) return;
  ++phase(it->second, now).offered_at_defense;
}

void PacketLedger::on_drop(const sim::Packet& p, sim::DropReason r,
                           sim::NodeId /*where*/, double now) {
  if (p.probe) return;  // probe losses are overhead, not flow traffic
  const auto it = flows_.find(p.flow_id);
  if (it == flows_.end()) return;
  auto& counters = phase(it->second, now);
  switch (r) {
    case sim::DropReason::kDefenseProbe:
      ++counters.dropped_probation;
      break;
    case sim::DropReason::kDefensePdt:
      ++counters.dropped_pdt;
      break;
    case sim::DropReason::kDefenseBaseline:
      ++counters.dropped_baseline;
      break;
    case sim::DropReason::kQueueOverflow:
      ++counters.queue_drops;
      break;
    default:
      break;  // routing/ttl/port drops are not attributed
  }
}

void PacketLedger::on_victim_offered(const sim::Packet& p, double now) {
  victim_offered_bytes_.add(now, static_cast<double>(p.size_bytes));
}

void PacketLedger::on_victim_delivered(const sim::Packet& p, double now) {
  const auto it = flows_.find(p.flow_id);
  if (it == flows_.end()) return;
  ++phase(it->second, now).victim_arrivals;
}

}  // namespace mafic::metrics
