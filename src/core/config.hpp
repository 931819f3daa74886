#pragma once

/// \file config.hpp
/// Tunables of the MAFIC algorithm. Defaults reflect the paper: Pd = 90%
/// (Table II), probe timer = 2 x RTT (section III-B), three duplicate ACKs
/// (the standard fast-retransmit trigger).

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace mafic::core {

/// Occupancy ceiling of the flat open-addressing flow stores (FlowTables'
/// store and the RttEstimator). Higher values trade longer robin-hood
/// probe sequences for less memory; a store sizes itself for its capacity
/// bounds and grows by doubling until it reaches them, after which it
/// never reallocates. 0.65 keeps the worst-case post-doubling occupancy
/// low enough that lookups average about one cache line even when growth
/// stops just under the ceiling.
inline constexpr double kFlowStoreMaxLoad = 0.65;

struct MaficConfig {
  /// Pd — probability of dropping a packet of an untested / suspicious
  /// flow during the probing phase.
  double drop_probability = 0.9;

  /// Seed of the Pd coin. Each coin is a stateless hash of (coin_seed,
  /// flow key, packet uid): i.i.d. Bernoulli(Pd) per packet, yet a flow's
  /// coins do not depend on how other flows interleave or which engine
  /// inspects it, so a ShardedFilter's N shards decide exactly as one
  /// engine does. It stands in for the per-packet header entropy a
  /// hardware datapath would hash. Every engine whose decisions are meant
  /// to be comparable (the shards of one ShardedFilter, the ATRs of one
  /// Experiment run) must share it.
  std::uint64_t coin_seed = 0;

  /// The response timer as a multiple of the flow's RTT ("we set the timer
  /// equal 2 x RTT"). The first half of the window measures the baseline
  /// arrival rate, the second half the post-probe rate.
  double probe_window_rtt_multiple = 2.0;

  /// RTT bookkeeping. Timestamp echoes sampled at an ingress router see
  /// roughly half of the true round trip (sink -> sender -> router), so the
  /// sample is multiplied by `rtt_correction`. Flows without usable
  /// timestamps get `default_rtt`.
  double default_rtt = 0.04;
  double rtt_correction = 2.0;
  double min_rtt = 0.01;
  double max_rtt = 0.1;
  double rtt_ewma_alpha = 0.25;

  /// "Arriving rate decreased?" — the flow passes the test when its probe-
  /// half arrival count is below `decrease_ratio` times its baseline-half
  /// count AND at least `min_absolute_decrease` packets fewer arrived.
  /// The absolute guard matters for slow flows: counting noise on a
  /// handful of packets can fake a 15% relative drop, but a genuine TCP
  /// sender halving its window always sheds whole packets.
  double decrease_ratio = 0.85;
  std::uint32_t min_absolute_decrease = 2;

  /// Flows with fewer baseline-half packets than this are too thin to
  /// judge; they get the benefit of the doubt (moved to the NFT). Keeps
  /// false positives on low-rate legitimate flows down at the price of
  /// letting equally thin attack flows through (a false-negative source
  /// the paper also exhibits).
  std::uint32_t min_baseline_packets = 2;

  /// Probe: number of duplicate ACKs sent to the claimed source and their
  /// spacing. Three is the fast-retransmit trigger.
  std::uint32_t probe_dup_acks = 3;
  double probe_spacing_s = 0.0005;
  std::uint32_t probe_ack_bytes = 40;
  bool probe_enabled = true;  ///< ablation A4 switches this off

  /// Flowchart-literal mode: drop *every* SFT packet during the window
  /// instead of dropping with probability Pd (ablation).
  bool drop_all_in_sft = false;

  /// Table capacity bounds; overflowing SFT entries evict the oldest.
  std::size_t sft_capacity = 4096;
  std::size_t nft_capacity = 65536;
  std::size_t pdt_capacity = 65536;

  /// Bound on per-flow RTT estimates kept by the (flat) RttEstimator.
  /// When full, admitting a new flow recycles an arbitrary resident
  /// estimate (round-robin), so fresh flows keep getting estimates under
  /// label churn while the store never reallocates.
  std::size_t rtt_capacity = 65536;

  /// Per-victim SFT filtering budget. 0 (default) keeps the legacy
  /// behaviour: one global eviction ring, so at capacity a flood aimed at
  /// one protected destination can recycle another destination's
  /// probations before their 2 x RTT deadlines. When > 0 each protected
  /// destination becomes a victim class with its own eviction ring and a
  /// reserved quota of SFT slots: values in (0, 1] are a fraction of
  /// sft_capacity per victim, values > 1 are absolute slots per victim
  /// (either way clamped so the summed quotas never exceed sft_capacity).
  /// Slots beyond the summed quotas form a shared overflow pool. At
  /// capacity the admitting victim pays from its own ring while at/over
  /// quota; an under-quota victim instead reclaims a slot from the most
  /// over-quota class (draining overflow users back toward their
  /// reservations pro-rata), so no flood can push a victim below its
  /// quota. Takes effect when FilterEngine::activate registers the victim
  /// set with the tables.
  double sft_victim_quota = 0.0;

  /// Reject sources whose address is illegal (outside every registered
  /// subnet) or unreachable (never allocated) straight into the PDT.
  bool address_screening = true;

  /// Extension (paper future-work direction): when > 0, Nice Flow Table
  /// entries expire after this many seconds and the flow faces a fresh
  /// probation. Defends against on-off attackers that behave during the
  /// probe window and flood afterwards. 0 = paper-faithful (NFT is
  /// permanent until tables are flushed).
  double nft_revalidation_interval = 0.0;

  /// Pushback keep-alive: if > 0, the filter deactivates itself (flushing
  /// all tables) when no refresh() arrives within this many seconds —
  /// the "Pushback Continue? -> No" arc of Fig. 2. 0 means the activation
  /// is latched until an explicit deactivate().
  double refresh_timeout = 0.0;
};

/// Throws std::invalid_argument for a config an engine cannot run: a zero
/// table capacity (capacity eviction would find nothing to evict), a Pd
/// outside [0, 1], NaN included (the coin would never drop, so no flow is
/// ever admitted), or a negative or NaN sft_victim_quota (quotas would be
/// silently off; 0 is the way to turn them off). FilterEngine's,
/// FlowTables' and Experiment's constructors call it.
inline void validate(const MaficConfig& cfg) {
  if (cfg.sft_capacity == 0 || cfg.nft_capacity == 0 ||
      cfg.pdt_capacity == 0) {
    throw std::invalid_argument(
        "MaficConfig: sft/nft/pdt capacities must be >= 1");
  }
  if (!(cfg.drop_probability >= 0.0 && cfg.drop_probability <= 1.0)) {
    throw std::invalid_argument(
        "MaficConfig: drop_probability must be in [0, 1]");
  }
  if (!(cfg.sft_victim_quota >= 0.0)) {
    throw std::invalid_argument(
        "MaficConfig: sft_victim_quota must be >= 0 (0 turns quotas off)");
  }
}

}  // namespace mafic::core
