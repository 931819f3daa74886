#pragma once

/// \file flow_tables.hpp
/// The three MAFIC flow tables (paper Fig. 2):
///   SFT — Suspicious Flow Table: flows under probation, with the response
///         timer and the two rate-measurement half-windows;
///   NFT — Nice Flow Table: flows that responded to the probe (never
///         dropped again until tables are flushed);
///   PDT — Permanently Drop Table: unresponsive flows and flows with
///         illegal/unreachable sources (every packet dropped).
///
/// Tables store 64-bit hashes of the 4-tuple label, not the label itself
/// (section III-B). Class invariant: a key is in at most one table.
///
/// Storage: all three tables live in ONE flat open-addressing store
/// (util::FlatTable) — each resident key maps to a small record carrying
/// its TableKind tag plus either the NFT expiry stamp or an index into a
/// contiguous SftEntry arena. One probe sequence answers "which table is
/// this key in", and the steady-state lookup touches adjacent cache lines
/// instead of chasing per-node heap pointers. The arena is freelist-
/// recycled, so admitting/resolving probations allocates nothing once the
/// working set is resident.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/config.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/flat_table.hpp"

namespace mafic::core {

enum class TableKind : std::uint8_t {
  kNone,
  kSuspicious,
  kNice,
  kPermanentDrop,
};

const char* to_string(TableKind k) noexcept;

/// Why a probation left the SFT without being resolved (eviction hook).
enum class EvictCause : std::uint8_t {
  kCapacity,  ///< table full; the admitting victim class paid from its
              ///< own ring (or quotas are disabled and the ring is global)
  kQuota,     ///< table full; an over-quota class gave a slot back so an
              ///< under-quota victim could admit (cross-victim payment)
  kFlush,     ///< "End dropping & flush all tables" (Fig. 2 exit arc)
};

const char* to_string(EvictCause c) noexcept;

/// Probation record for one suspicious flow.
struct SftEntry {
  std::uint64_t key = 0;
  sim::FlowLabel label;      ///< kept to craft the probe ACKs
  double entry_time = 0.0;   ///< when the flow was first dropped into SFT
  double split_time = 0.0;   ///< baseline half ends / probe half begins
  double deadline = 0.0;     ///< timer expiry (entry + 2 x RTT)
  std::uint32_t baseline_count = 0;  ///< arrivals in [entry, split)
  std::uint32_t probe_count = 0;     ///< arrivals in [split, deadline)
  bool probe_sent = false;
  sim::TimerId probe_timer = sim::kInvalidTimer;
  sim::TimerId decision_timer = sim::kInvalidTimer;
};

class FlowTables {
 public:
  /// Throws std::invalid_argument for a config core::validate rejects.
  explicit FlowTables(const MaficConfig& cfg);

  struct Stats {
    std::uint64_t sft_admissions = 0;
    std::uint64_t sft_evictions = 0;
    std::uint64_t quota_evictions = 0;  ///< subset of sft_evictions where
                                        ///< an over-quota class paid for
                                        ///< another victim's admission
    std::uint64_t moved_to_nft = 0;
    std::uint64_t moved_to_pdt = 0;
    std::uint64_t direct_pdt = 0;  ///< illegal/unreachable screening
    std::uint64_t nft_expirations = 0;  ///< revalidation extension
    std::uint64_t flushes = 0;
  };

  /// Invoked whenever a probation leaves the SFT *without* being resolved
  /// (capacity/quota eviction or flush); gives the owner a chance to
  /// cancel the entry's pending probe/decision timers and to attribute
  /// the eviction to the entry's victim.
  using EvictionHook = std::function<void(const SftEntry&, EvictCause)>;
  void set_eviction_hook(EvictionHook hook) { on_evicted_ = std::move(hook); }

  /// Registers the protected destinations as victim classes for the
  /// per-victim quota machinery (MaficConfig::sft_victim_quota). With the
  /// quota disabled — or fewer than two victims — everything collapses
  /// into one shared class (the legacy global ring). Victims are sorted
  /// internally so class indices are deterministic regardless of caller
  /// order (the scalar-vs-sharded equivalence depends on this). Live
  /// probations are re-ringed under the new classes; destinations outside
  /// the registered set share class 0. Idempotent for a repeated set.
  void set_victim_classes(const std::vector<util::Addr>& victims);

  /// Weighted variant: `weights[i]` is victim[i]'s share weight (e.g. its
  /// provisioned bandwidth), parallel to the CALLER's victim order; the
  /// pair is sorted together internally. Reservations are proportional:
  /// class i gets floor(pool * w_i / sum(w)) slots, where the pool is the
  /// unweighted total min(per_victim_quota * n, sft_capacity) — so the
  /// summed-reservations-fit-the-table invariant of the equal-split path
  /// is preserved and a zero-weight victim simply holds no reserved slots
  /// (it still admits through the unreserved overflow share). Negative
  /// weights clamp to 0; an all-zero/empty weight vector falls back to the
  /// equal split. Idempotent for a repeated (victims, weights) pair.
  void set_victim_classes(const std::vector<util::Addr>& victims,
                          const std::vector<double>& weights);

  /// Number of victim classes (1 when quotas are off / unregistered).
  std::size_t victim_classes() const noexcept {
    return 1 + extra_rings_.size();
  }
  /// Reserved SFT slots per victim class (0 when quotas are off). With
  /// weighted quotas classes differ — this reports class 0's; use
  /// quota_slots_of() for a specific victim.
  std::size_t quota_slots() const noexcept {
    return class_quota_.empty() ? 0 : class_quota_.front();
  }
  /// Reserved SFT slots of `victim`'s class (0 when quotas are off;
  /// unregistered destinations report class 0's share).
  std::size_t quota_slots_of(util::Addr victim) const noexcept {
    return class_quota_.empty() ? 0 : class_quota_[class_of(victim)];
  }
  /// Live probations belonging to `victim`'s class (its ring occupancy).
  /// With quotas off every destination shares the single class, so this
  /// reports sft_size(); unregistered destinations report class 0's.
  std::size_t sft_size_of(util::Addr victim) const noexcept;
  /// Live probations across every class ring; always equals sft_size().
  std::size_t ring_occupancy() const noexcept;

  /// Current table of `key`. When NFT revalidation is enabled, an expired
  /// NFT entry is lazily removed and the key reports kNone, sending the
  /// flow back through probation on its next drop.
  TableKind classify(std::uint64_t key,
                     double now = -std::numeric_limits<double>::infinity());

  SftEntry* find_sft(std::uint64_t key) noexcept;

  /// Software-prefetches the key's home slot in the flat store. Batched
  /// inspection prefetches a window of keys before classifying them so the
  /// random-access loads overlap instead of serializing on DRAM latency.
  void prefetch(std::uint64_t key) const noexcept { store_.prefetch(key); }

  /// Prefetches an SFT arena entry by slot (second-stage prefetch of the
  /// batched verdict pipeline: peek() yields the slot, the lane decision
  /// then reads the entry's deadline one pass later).
  void prefetch_sft(std::uint32_t slot) const noexcept {
    __builtin_prefetch(&arena_[slot], /*rw=*/0, /*locality=*/1);
  }

  /// Read-only table snapshot for the batched verdict pipeline
  /// (verdict_pipeline.hpp): one probe sequence, NO lazy NFT expiry and no
  /// other side effect — the pipeline replicates classify()'s expiry test
  /// from `nft_expiry` itself and routes expired entries through the
  /// scalar path. `sft_slot`/`nft_expiry` are only meaningful for their
  /// respective kinds.
  struct Peek {
    TableKind kind = TableKind::kNone;
    std::uint32_t sft_slot = 0xffffffffu;
    double nft_expiry = 0.0;
  };
  Peek peek(std::uint64_t key) const noexcept {
    const FlowRecord* r = store_.find(key);
    if (r == nullptr) return {};
    return {r->kind, r->sft_slot, r->nft_expiry};
  }

  /// Live SFT entry by arena slot (from Peek::sft_slot). The reference is
  /// valid only while epoch() is unchanged: any structural mutation may
  /// recycle or relocate the slot.
  SftEntry& sft_at(std::uint32_t slot) noexcept { return arena_[slot]; }

  /// Structural-mutation counter: bumped by every insert/erase/kind
  /// change/eviction/flush — anything that can invalidate a Peek or an
  /// sft_at() reference. In-place SFT count updates do NOT bump it. The
  /// batched pipeline snapshots the epoch, materializes a window of Peeks,
  /// and falls back to the scalar path the moment the epoch moves.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Admits a flow into the SFT (must not be in any table). Returns the
  /// new entry, or nullptr if the key is already tabled. Evicts the oldest
  /// probation when full. The returned pointer is valid until the next
  /// admit/resolve/flush call.
  SftEntry* admit_sft(std::uint64_t key, const sim::FlowLabel& label,
                      double now, double window_seconds);

  /// Resolves a probation: removes the SFT entry and inserts the key into
  /// NFT or PDT. Returns the resolved entry by value (for callbacks).
  /// `now` stamps the NFT expiry when revalidation is configured.
  SftEntry resolve(std::uint64_t key, TableKind destination,
                   double now = 0.0);

  /// Screening shortcut: key goes straight to the PDT (no probation).
  void add_pdt_direct(std::uint64_t key);

  bool in_nft(std::uint64_t key) const noexcept {
    const FlowRecord* r = store_.find(key);
    return r != nullptr && r->kind == TableKind::kNice;
  }
  /// Expiry stamp of an NFT entry (tests/diagnostics); +inf when the entry
  /// never expires, NaN when absent.
  double nft_expiry(std::uint64_t key) const noexcept {
    const FlowRecord* r = store_.find(key);
    return r != nullptr && r->kind == TableKind::kNice
               ? r->nft_expiry
               : std::numeric_limits<double>::quiet_NaN();
  }
  bool in_pdt(std::uint64_t key) const noexcept {
    const FlowRecord* r = store_.find(key);
    return r != nullptr && r->kind == TableKind::kPermanentDrop;
  }

  /// "End dropping & flush all tables" (Fig. 2 exit arc).
  void flush();

  std::size_t sft_size() const noexcept { return sft_count_; }
  std::size_t nft_size() const noexcept { return nft_count_; }
  std::size_t pdt_size() const noexcept { return pdt_count_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Total resident keys across all three tables (one flat store).
  std::size_t resident() const noexcept { return store_.size(); }
  /// Longest probe sequence in the flat store (diagnostics).
  std::uint32_t max_probe_length() const noexcept {
    return store_.max_probe_length();
  }

  /// Visits every live SFT entry (tests, diagnostics).
  template <typename Fn>
  void for_each_sft(Fn&& fn) const {
    for (std::uint32_t i = 0; i < arena_.size(); ++i) {
      if (arena_live_[i] != 0) fn(arena_[i]);
    }
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One flat-store record: the table tag plus the per-kind payload.
  struct FlowRecord {
    TableKind kind = TableKind::kNone;
    std::uint32_t sft_slot = kNoSlot;  ///< arena index (kSuspicious only)
    double nft_expiry = 0.0;           ///< expiry stamp (kNice only)
  };

  // --- deadline-bucketed eviction rings --------------------------------
  // Live probations hang off per-victim-class rings of FIFO buckets keyed
  // by their deadline quantized to the timer wheel's tick
  // (TimerWheel::quantize), so capacity eviction pops the nearest-deadline
  // probation of the paying class in O(1) amortized instead of scanning
  // the arena. Matters under per-packet-spoofed floods (ablation A5),
  // where every admission at a full SFT evicts. Each ring's `cursor` is a
  // monotone lower bound on its minimum live tick; all of a ring's live
  // ticks fit in [cursor, cursor + buckets), the ring doubling (rare) or
  // the far-future clamp keeping that invariant. With quotas off there is
  // exactly one ring and the behaviour is the legacy global ordering.
  struct Ring {
    std::vector<std::uint32_t> head;  ///< per-bucket FIFO head slot
    std::vector<std::uint32_t> tail;
    std::vector<std::uint64_t> occ;   ///< bucket occupancy bitmap
    std::uint64_t cursor = 0;
    std::size_t live = 0;
  };

  std::uint32_t alloc_arena_slot();
  void free_arena_slot(std::uint32_t slot) noexcept;
  /// Victim class of a destination; 0 when quotas are off/unregistered.
  std::uint32_t class_of(util::Addr dst) const noexcept;
  /// Frees one SFT slot so class `cls` can admit (quota mode only; the
  /// single-class path calls evict_from_class directly): the admitter
  /// pays from its own ring while at/over quota, otherwise the most
  /// over-quota class pays (EvictCause::kQuota) — O(classes) worst case.
  void evict_for_admission(std::uint32_t cls);
  /// Evicts the nearest-deadline probation of class `cls`.
  void evict_from_class(std::uint32_t cls, EvictCause cause);
  /// Evicts an arbitrary resident entry of `kind` (NFT/PDT bound guard).
  void evict_any(TableKind kind);

  void ring_reset(Ring& r);  ///< (re)sizes to the configured bucket count
  /// `r` must be rings_[cls] — resolved once by the caller so the hot
  /// admit/evict path pays the rings_ indirection once per operation.
  void ring_insert(Ring& r, std::uint32_t cls, std::uint32_t slot,
                   double deadline);
  void ring_unlink(std::uint32_t slot) noexcept;  ///< resolves slot's ring
  void ring_unlink_in(Ring& r, std::uint32_t slot) noexcept;
  void ring_clear() noexcept;
  /// Advances r.cursor to the minimum occupied tick; requires r.live > 0.
  void ring_seek(Ring& r) noexcept;
  void ring_grow(Ring& r, std::size_t min_buckets);

  const MaficConfig& cfg_;
  util::FlatTable<FlowRecord> store_;
  std::vector<SftEntry> arena_;        ///< probation payloads, contiguous
  std::vector<std::uint8_t> arena_live_;
  std::vector<std::uint32_t> arena_free_;
  std::size_t sft_count_ = 0;
  std::size_t nft_count_ = 0;
  std::size_t pdt_count_ = 0;
  std::size_t evict_cursor_ = 0;  ///< rotating scan hint for evict_any
  std::uint64_t epoch_ = 0;       ///< structural-mutation counter (epoch())
  EvictionHook on_evicted_;
  Stats stats_;

  /// Ring of victim class `cls`. Class 0 lives inline in the object so
  /// the quotas-off hot path (exactly one class) touches no extra
  /// indirection vs the pre-quota single-ring layout; extra classes only
  /// exist in multi-victim quota mode, off the flood-critical default.
  Ring& ring_at(std::uint32_t cls) noexcept {
    return cls == 0 ? ring0_ : extra_rings_[cls - 1];
  }
  const Ring& ring_at(std::uint32_t cls) const noexcept {
    return cls == 0 ? ring0_ : extra_rings_[cls - 1];
  }

  Ring ring0_;                      ///< class 0 (the only ring, quotas off)
  std::vector<Ring> extra_rings_;   ///< classes 1..n-1 (quota mode only)
  std::vector<util::Addr> class_victims_;  ///< sorted; empty = one class
  std::vector<double> class_weights_;      ///< parallel; empty = equal split
  std::vector<std::size_t> class_quota_;   ///< reserved slots per class
  std::vector<std::uint32_t> ring_next_;   ///< per-arena-slot bucket links
  std::vector<std::uint32_t> ring_prev_;
  std::vector<std::uint64_t> slot_tick_;   ///< per-slot deadline tick
  std::vector<std::uint32_t> slot_class_;  ///< per-slot victim class
};

}  // namespace mafic::core
