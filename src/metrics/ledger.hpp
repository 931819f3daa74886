#pragma once

/// \file ledger.hpp
/// Ground-truth accounting. The ledger knows which flow each packet came
/// from (via the metrics-only flow_id side channel) and whether that flow
/// is malicious; the defense never reads any of this. All five paper
/// metrics are computed from the counters collected here.

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/time_series.hpp"

namespace mafic::metrics {

/// What the experiment knows about one traffic source.
struct FlowGroundTruth {
  sim::FlowId id = sim::kUntrackedFlow;
  bool malicious = false;
  bool tcp = false;         ///< congestion-responsive transport
  sim::FlowLabel label;     ///< wire label (spoofed source for zombies)
  sim::NodeId ingress_router = sim::kInvalidNode;
};

class PacketLedger {
 public:
  /// Counters for one flow within one phase (pre/post trigger).
  struct PhaseCounters {
    std::uint64_t offered_at_defense = 0;
    std::uint64_t dropped_probation = 0;  ///< Pd drops (probe phase)
    std::uint64_t dropped_pdt = 0;
    std::uint64_t dropped_baseline = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t victim_arrivals = 0;  ///< delivered over the last hop

    std::uint64_t defense_drops() const noexcept {
      return dropped_probation + dropped_pdt + dropped_baseline;
    }
  };

  struct FlowRecord {
    FlowGroundTruth truth;
    PhaseCounters pre;
    PhaseCounters post;
  };

  /// Bin width of the victim bandwidth series, in seconds.
  static constexpr double kSeriesBinWidth = 0.05;

  explicit PacketLedger(double bin_width = kSeriesBinWidth)
      : victim_offered_bytes_(bin_width) {}

  void register_flow(const FlowGroundTruth& truth);
  const FlowRecord* flow(sim::FlowId id) const;
  std::size_t flow_count() const noexcept { return flows_.size(); }

  /// Called once when the pushback first activates; earlier events count
  /// as "pre", later ones as "post".
  void set_trigger_time(double t) noexcept { trigger_time_ = t; }
  bool triggered() const noexcept {
    return trigger_time_ != std::numeric_limits<double>::infinity();
  }
  double trigger_time() const noexcept { return trigger_time_; }

  // --- event hooks -------------------------------------------------------
  void on_defense_offered(const sim::Packet& p, double now);
  void on_drop(const sim::Packet& p, sim::DropReason r, sim::NodeId where,
               double now);
  /// Pre-queue observation on the victim's last-hop link (bandwidth
  /// series for Fig. 4(b); the beta numerator/denominator).
  void on_victim_offered(const sim::Packet& p, double now);
  /// Post-queue delivery over the last hop ("hit the victim node").
  void on_victim_delivered(const sim::Packet& p, double now);

  // --- aggregates ---------------------------------------------------------
  const util::BinnedSeries& victim_offered_bytes() const noexcept {
    return victim_offered_bytes_;
  }

  /// Visits every registered flow in REGISTRATION order (deterministic:
  /// the experiment registers flows in construction order). The storage
  /// map is unordered for O(1) per-packet counter lookups; iterating it
  /// directly would leak hash-bucket order into anything summed in
  /// floating point or emitted per-flow, so the walk goes through the
  /// registration-order index instead.
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (const sim::FlowId id : order_) fn(flows_.find(id)->second);
  }

 private:
  PhaseCounters& phase(FlowRecord& rec, double now) noexcept {
    return now < trigger_time_ ? rec.pre : rec.post;
  }

  std::unordered_map<sim::FlowId, FlowRecord> flows_;
  std::vector<sim::FlowId> order_;  ///< registration order (for_each_flow)
  double trigger_time_ = std::numeric_limits<double>::infinity();
  util::BinnedSeries victim_offered_bytes_;
};

}  // namespace mafic::metrics
