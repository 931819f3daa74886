#pragma once

/// \file control_snapshot.hpp
/// The control plane's copy-on-epoch snapshot seam.
///
/// The asynchronous control-plane detector (pushback/control_plane.hpp)
/// never touches live datapath state: at every TrafficMonitor epoch the
/// sim thread assembles a ControlSnapshot — a frozen copy of the epoch's
/// traffic matrix plus plain-integer samples of the per-victim decision
/// counters — and hands THAT to the detection step. Because the snapshot
/// is a by-value copy taken at an epoch-aligned sim event, detection is a
/// pure function of it and shares nothing with the engines it observes,
/// so detector-mode results cannot depend on the datapath strategy.
///
/// This header is vocabulary only: plain structs of integers/doubles and
/// the already-frozen TrafficMatrixSnapshot. It must not name live
/// datapath types (FlowTables, FilterEngine, the verdict pipeline) — the
/// maficlint `seams` rule machine-checks that for every control-plane
/// file, this one included.

#include <cstdint>
#include <vector>

#include "sketch/traffic_matrix.hpp"
#include "util/ip.hpp"

namespace mafic::sketch {

/// One protected destination's decision counters, sampled cumulatively at
/// the snapshot instant (plain integers; the provider reads whatever
/// engine aggregation it likes and writes numbers here).
struct VictimCounterSample {
  util::Addr victim = util::kInvalidAddr;
  sim::NodeId last_hop_router = sim::kInvalidNode;
  std::uint64_t decided_nice = 0;
  std::uint64_t decided_malicious = 0;
  std::uint64_t screened_sources = 0;
  std::uint64_t evictions = 0;
};

/// Frozen epoch view handed to the detection step.
struct ControlSnapshot {
  TrafficMatrixSnapshot matrix;
  /// Victim order (primary first, then extras) — the order every
  /// per-victim walk in the control plane uses, so nothing downstream
  /// depends on container iteration order.
  std::vector<VictimCounterSample> victims;
};

}  // namespace mafic::sketch
