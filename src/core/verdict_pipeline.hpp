#pragma once

/// \file verdict_pipeline.hpp
/// The batched classify micro-path: a staged, struct-of-arrays verdict
/// pipeline shared by every batched inspection entry point —
/// FilterEngine::inspect_batch (one engine, a contiguous packet array)
/// and ShardedFilter::inspect_batch (the cross-shard arrival-order walk).
/// One template, two adapters, so the paths cannot drift.
///
/// A window of kWindow packets runs through four passes over parallel
/// stack arrays:
///
///   1. pre-hash  — gate (wants) + label hash, unrolled 4-wide, issuing a
///                  FlatTable::prefetch per hot key (partition-side for
///                  the sharded walk);
///   2. peek      — one read-only flat-store probe per hot key
///                  (FlowTables::peek), materializing {kind, sft_slot,
///                  nft_expiry} by value and issuing a second-stage
///                  prefetch of the SFT arena entry for probations;
///   3. lane      — a table-driven lane select per packet: terminal kinds
///                  map through a 4-entry LUT, the two timestamp tests
///                  (NFT expiry, SFT deadline) demote to the slow lane via
///                  conditional moves, and the Pd coin (a pure function
///                  of seed, key and uid) is evaluated for live
///                  probations;
///   4. verdict   — one in-arrival-order walk applying side effects
///                  (offered stats/callback, RTT observe, SFT half-window
///                  counts, coin, verdict write). Fast lanes touch no
///                  branch ladder; anything stateful — new flows, expired
///                  NFT entries, deadline-due probations — drops to the
///                  scalar tail (FilterEngine::classify_slow), which IS
///                  the per-packet oracle.
///
/// Bit-identity to per-packet inspect() is preserved by construction:
///
///  * Passes 2–3 only read; every side effect (stats, callbacks, RTT,
///    counts, admissions) happens in pass 4 in arrival order, exactly
///    where the scalar walk performs it. The coin has no state to
///    advance, so precomputing it in pass 3 cannot reorder anything.
///  * The materialized window is speculation against table state at the
///    window start. FlowTables::epoch() counts every structural mutation;
///    pass 4 re-checks it per packet and reroutes the packet through the
///    scalar tail the moment an earlier packet in the window (an
///    admission, a lazy NFT expiry, an eviction, a decide) moved the
///    epoch — stale lanes and stale arena slots are never consumed.
///  * The engine clock is sampled once per batch. Every driver in the
///    repo advances time only BETWEEN batches (ManualClock via
///    advance_until, the simulator between events), so per-packet
///    clock->now() calls inside one batch are constant by contract.
///
/// Thread safety: same as FilterEngine — one engine, one thread; the
/// scratch here is stack-local per call.

#include <cstdint>

#include "core/filter_engine.hpp"
#include "core/flow_tables.hpp"
#include "sim/packet.hpp"

namespace mafic::core {

class VerdictPipeline {
 public:
  /// Window width: long enough that the per-window pass overhead
  /// amortizes and the prefetch pass exposes a full line-fill-buffer's
  /// worth of concurrent misses; short enough (32 lines = 2 KB of store
  /// slots) that prefetched lines survive until their peek.
  static constexpr std::size_t kWindow = 32;

  /// Pass 1 for the single-engine batch: gate + hash + store prefetch over
  /// one window, 4-wide unrolled (independent mix64 chains schedule in
  /// parallel). Writes keys[j] / hot[j] for j in [0, m).
  // maficlint: hot
  template <typename PacketAt>
  static void prehash_window(const FilterEngine& eng, PacketAt&& packet_at,
                             std::size_t m, std::uint64_t* keys,
                             std::uint8_t* hot) {
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      gate_hash(eng, packet_at(j + 0), keys + j + 0, hot + j + 0);
      gate_hash(eng, packet_at(j + 1), keys + j + 1, hot + j + 1);
      gate_hash(eng, packet_at(j + 2), keys + j + 2, hot + j + 2);
      gate_hash(eng, packet_at(j + 3), keys + j + 3, hot + j + 3);
    }
    for (; j < m; ++j) gate_hash(eng, packet_at(j), keys + j, hot + j);
    for (j = 0; j < m; ++j) {
      if (hot[j] != 0) eng.tables_.prefetch(keys[j]);
    }
  }

  /// Passes 2–4 over one window (m <= kWindow).
  ///
  ///  * engine_at(j) — the packet's home engine (constant for the
  ///    single-engine callers; per-packet for the sharded walk).
  ///  * now_at(j)    — the engine's batch-sampled clock value.
  ///  * hot          — pass-1/partition gate bits.
  ///  * kRegate      — re-apply wants() per packet in pass 4, matching
  ///    the pre-pipeline behaviour of the sharded path (its
  ///    inspect_hashed walk re-gated every packet). The single-engine
  ///    batch gates in pass 1 only, as it always has.
  // maficlint: hot
  template <bool kRegate, typename EngineAt, typename PacketAt,
            typename NowAt>
  static void window(EngineAt&& engine_at, PacketAt&& packet_at,
                     NowAt&& now_at, const std::uint64_t* keys,
                     const std::uint8_t* hot, std::size_t m,
                     EngineVerdict* out) {
    // --- SoA scratch (stack; one cache line each) -----------------------
    FlowTables::Peek pk[kWindow];
    std::uint64_t epo[kWindow];
    std::uint8_t lane[kWindow];
    std::uint8_t coin[kWindow];

    // --- pass 2: peek + arena prefetch ---------------------------------
    for (std::size_t j = 0; j < m; ++j) {
      lane[j] = kLaneCold;
      if (hot[j] == 0) continue;
      FilterEngine& e = engine_at(j);
      epo[j] = e.tables_.epoch();
      pk[j] = e.tables_.peek(keys[j]);
      if (pk[j].kind == TableKind::kSuspicious) {
        e.tables_.prefetch_sft(pk[j].sft_slot);
      }
      lane[j] = kLaneHot;  // resolved in pass 3
    }

    // --- pass 3: table-driven lane select + Pd coin ---------------------
    // TableKind {kNone, kSuspicious, kNice, kPermanentDrop} maps straight
    // to a lane; the two timestamp tests demote to the slow lane as
    // conditional moves. kNone (admission path), expired NFT entries and
    // deadline-due probations are stateful and belong to the scalar tail.
    static constexpr std::uint8_t kKindLane[4] = {kLaneSlow, kLaneSft,
                                                  kLaneNft, kLanePdt};
    for (std::size_t j = 0; j < m; ++j) {
      if (lane[j] == kLaneCold) continue;
      FilterEngine& e = engine_at(j);
      const double now = now_at(j);
      std::uint8_t ln = kKindLane[static_cast<std::uint8_t>(pk[j].kind)];
      if (ln == kLaneNft) {
        ln = now > pk[j].nft_expiry ? kLaneSlow : kLaneNft;
      } else if (ln == kLaneSft) {
        const SftEntry& se = e.tables_.sft_at(pk[j].sft_slot);
        ln = now >= se.deadline ? kLaneSlow : kLaneSft;
        if (ln == kLaneSft) coin[j] = e.coin(packet_at(j), keys[j]) ? 1 : 0;
      }
      lane[j] = ln;
    }

    // --- pass 4: in-order verdicts + side effects ----------------------
    for (std::size_t j = 0; j < m; ++j) {
      if (lane[j] == kLaneCold) {
        out[j] = EngineVerdict::kForward;
        continue;
      }
      FilterEngine& e = engine_at(j);
      const sim::Packet& p = packet_at(j);
      if constexpr (kRegate) {
        if (!e.wants(p)) {
          out[j] = EngineVerdict::kForward;
          continue;
        }
      }
      ++e.stats_.offered;
      if (e.on_offered_) e.on_offered_(p);
      const double now = now_at(j);
      if (p.tsecr > 0.0) e.rtt_.observe(keys[j], now - p.tsecr);

      // Speculation check: an earlier packet's side effect (admission,
      // decide, eviction, lazy expiry, flush) structurally moved the
      // tables — this packet's materialized lane/slot may be stale, so it
      // takes the scalar tail, which re-reads everything.
      std::uint8_t ln = lane[j];
      if (ln != kLaneSlow && e.tables_.epoch() != epo[j]) ln = kLaneSlow;

      switch (ln) {
        case kLaneNft:
          ++e.stats_.forwarded;
          out[j] = EngineVerdict::kForward;
          break;
        case kLanePdt:
          ++e.stats_.dropped_pdt;
          out[j] = EngineVerdict::kDropPdt;
          break;
        case kLaneSft: {
          SftEntry& se = e.tables_.sft_at(pk[j].sft_slot);
          // Half-window arrival counts, as conditional increments.
          const bool in_probe_half = now >= se.split_time;
          se.baseline_count += in_probe_half ? 0u : 1u;
          se.probe_count += in_probe_half ? 1u : 0u;
          if (e.cfg_.drop_all_in_sft || coin[j] != 0) {
            ++e.stats_.dropped_probation;
            out[j] = EngineVerdict::kDropProbation;
          } else {
            ++e.stats_.forwarded;
            out[j] = EngineVerdict::kForward;
          }
          break;
        }
        default:  // kLaneSlow: the scalar oracle tail
          out[j] = e.classify_slow(p, keys[j], now);
          break;
      }
    }
  }

 private:
  enum : std::uint8_t {
    kLaneCold = 0,  ///< gated out before the pipeline (forward, no effects)
    kLaneSlow = 1,  ///< scalar tail: new flow / expired NFT / due SFT
    kLaneNft = 2,
    kLanePdt = 3,
    kLaneSft = 4,   ///< live probation (counts + Pd coin)
    kLaneHot = 5,   ///< pass-2 placeholder, resolved by pass 3
  };

  // maficlint: hot
  static void gate_hash(const FilterEngine& eng, const sim::Packet& p,
                        std::uint64_t* key, std::uint8_t* hot) noexcept {
    const bool h = eng.wants(p);
    *hot = h ? 1 : 0;
    if (h) *key = sim::hash_label(p.label);
  }
};

}  // namespace mafic::core
