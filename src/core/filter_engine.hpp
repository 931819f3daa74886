#pragma once

/// \file filter_engine.hpp
/// The simulator-agnostic MAFIC decision engine — the paper's Fig. 2
/// control flow with nothing else attached:
///
///   packet destined to a protected victim arrives
///     -> PDT match?  drop
///     -> NFT match?  forward
///     -> SFT match?  update the arrival counts; on timer expiry decide:
///                    rate decreased => NFT, else => PDT;
///                    while under probation drop with probability Pd
///     -> new flow:   illegal/unreachable source => PDT, drop;
///                    otherwise drop with probability Pd and, when the
///                    drop fires, admit to SFT, schedule the duplicate-ACK
///                    probe and the 2 x RTT response timer
///
/// The engine owns the per-flow state (FlowTables store + arena, RTT
/// estimator) and reaches its environment only through the
/// Clock / TimerService / ProbeSink seams (engine_seams.hpp). One engine
/// is single-threaded by construction; multi-core deployments run one
/// engine per shard with flows partitioned by key hash (sharded_filter.hpp)
/// and never share an engine across threads.
///
/// Batched inspection: inspect_batch() and friends run the staged SoA
/// verdict pipeline (verdict_pipeline.hpp) — a 4-wide unrolled pre-hash
/// pass feeding FlatTable::prefetch, a read-only peek pass materializing
/// per-packet table state into parallel arrays, a table-driven lane
/// select, and one in-arrival-order verdict walk whose fast lanes
/// (resident NFT/PDT, live probations) skip the scalar branch ladder.
/// Decisions, stats, coins and callback order are identical to
/// per-packet inspect() calls in the same order: stateful packets fall
/// back to the scalar tail, and a per-packet epoch check reroutes
/// anything materialized before a structural table mutation.

#include <functional>
#include <map>

#include "core/actuator.hpp"
#include "core/address_policy.hpp"
#include "core/config.hpp"
#include "core/engine_seams.hpp"
#include "core/flow_tables.hpp"
#include "core/pd_coin.hpp"
#include "core/rtt_estimator.hpp"
#include "sim/packet.hpp"

namespace mafic::core {

/// The engine's verdict for one packet. The sim adapter maps these onto
/// sim::DropReason; standalone drivers count them directly.
enum class EngineVerdict : std::uint8_t {
  kForward,
  kDropProbation,  ///< Pd drop (SFT window / admission coin)
  kDropPdt,        ///< Permanently Drop Table (incl. screened sources)
};

class FilterEngine {
 public:
  struct Stats {
    std::uint64_t offered = 0;  ///< victim-bound packets inspected
    std::uint64_t forwarded = 0;
    std::uint64_t dropped_probation = 0;  ///< Pd drops (SFT / admission)
    std::uint64_t dropped_pdt = 0;
    std::uint64_t screened_sources = 0;  ///< illegal/unreachable -> PDT
    std::uint64_t probes_issued = 0;
    std::uint64_t decided_nice = 0;
    std::uint64_t decided_malicious = 0;
  };

  /// Per-victim decision accounting (multi-victim scenarios): how this
  /// victim's flows resolved. Keyed by the flow label's destination, so
  /// one engine protecting several victims reports each independently.
  struct VictimStats {
    std::uint64_t decided_nice = 0;
    std::uint64_t decided_malicious = 0;
    std::uint64_t screened_sources = 0;
    /// Probations of this victim evicted at SFT capacity before their
    /// deadline (flushes excluded). Nonzero for a victim whose own flood
    /// churns the table; with quotas on it stays zero for a victim whose
    /// working set fits inside its reserved slots.
    std::uint64_t evictions = 0;
    /// Subset of `evictions` where this victim, over its quota, paid a
    /// slot back for another victim's admission (EvictCause::kQuota).
    std::uint64_t quota_evictions = 0;
  };

  /// Invoked when a probation resolves; receives the resolved entry and
  /// its destination table.
  using ClassificationCallback =
      std::function<void(const SftEntry&, TableKind)>;
  /// Invoked for every victim-bound packet inspected while active.
  using OfferedCallback = std::function<void(const sim::Packet&)>;

  /// All seam pointers are non-owning and must outlive the engine.
  /// `policy` may be null (no source screening). The Pd coin is seeded by
  /// cfg.coin_seed (pd_coin.hpp); the engine holds no generator. Throws
  /// std::invalid_argument for a config validate() rejects.
  FilterEngine(MaficConfig cfg, Clock* clock, TimerService* timers,
               ProbeSink* probes, const AddressPolicy* policy);

  // Not movable: tables_/rtt_ reference the engine's own cfg_, and the
  // eviction hook captures `this`. Heap-allocate and keep put.
  FilterEngine(const FilterEngine&) = delete;
  FilterEngine& operator=(const FilterEngine&) = delete;

  // --- activation (Fig. 2 outer loop) ---------------------------------
  void activate(const VictimSet& victims);

  /// Registers per-victim quota weights (e.g. provisioned bandwidth in
  /// bps) consumed by the next activate(): SFT reservations become
  /// proportional to the weights instead of an equal split
  /// (FlowTables::set_victim_classes weighted overload). Victims absent
  /// from the map weigh 1.0. Call before activate(); calling while active
  /// takes effect on the next activation (activate() is the only point
  /// where classes are (re)registered). Empty map = equal split.
  void set_victim_weights(std::vector<std::pair<util::Addr, double>> weights);
  void refresh();
  void deactivate();
  bool active() const noexcept { return active_; }

  // --- datapath --------------------------------------------------------
  EngineVerdict inspect(const sim::Packet& p);

  /// inspect() for a packet the caller has already gated and hashed
  /// (callers that hashed the label to route, e.g. ShardedFilter, avoid
  /// gating and hashing twice). Requires wants(p); `key` must equal
  /// sim::hash_label(p.label).
  EngineVerdict inspect_hashed(const sim::Packet& p, std::uint64_t key);

  /// Inspects `n` packets, writing one verdict per packet. Pre-hashes and
  /// prefetches a window of keys ahead of classification; allocation-free
  /// in steady state. Equivalent to calling inspect() per packet in order.
  void inspect_batch(const sim::Packet* pkts, std::size_t n,
                     EngineVerdict* out);

  /// The batched-inspection hot gate: true when `p` is inspectable
  /// victim-bound traffic (engine active, protected destination, not
  /// control). Cold packets forward without hashing or prefetching.
  /// One predicate shared by inspect_batch here and
  /// ShardedFilter::inspect_batch, so the batched paths cannot drift.
  /// The ubiquitous one-victim activation resolves to three compares
  /// instead of a hash-set probe — this runs once (or twice, on the
  /// re-gating paths) per packet.
  bool wants(const sim::Packet& p) const noexcept {
    if (!active_ || p.proto == sim::Protocol::kControl) return false;
    return single_victim_ ? p.label.dst == lone_victim_
                          : victims_.contains(p.label.dst);
  }

  /// The engine's current clock reading (one virtual call; the batched
  /// pipeline samples it once per batch instead of once per packet —
  /// every driver advances time only between batches).
  double now() const noexcept { return clock_->now(); }

  void set_classification_callback(ClassificationCallback cb) {
    on_classified_ = std::move(cb);
  }
  void set_offered_callback(OfferedCallback cb) {
    on_offered_ = std::move(cb);
  }

  const MaficConfig& config() const noexcept { return cfg_; }
  const FlowTables& tables() const noexcept { return tables_; }
  const RttEstimator& rtt_estimator() const noexcept { return rtt_; }
  const Stats& stats() const noexcept { return stats_; }
  /// Ordered by victim address, so per-victim emission (reports, golden
  /// fingerprints) never depends on hash-bucket iteration order.
  const std::map<util::Addr, VictimStats>& victim_stats() const noexcept {
    return victim_stats_;
  }
  const VictimSet& victims() const noexcept { return victims_; }

 private:
  /// The staged batch pipeline reaches the engine's tables, stats, coin
  /// and callbacks directly; it lives in its own header so FilterEngine
  /// and ShardedFilter share ONE lane implementation.
  friend class VerdictPipeline;

  /// The Fig. 2 walk with the label hash already computed (shared by the
  /// scalar and batched paths).
  EngineVerdict inspect_keyed(const sim::Packet& p, std::uint64_t key);
  /// The Fig. 2 walk AFTER the per-packet prologue (offered stats +
  /// callback, RTT observe): classification against the tables at `now`,
  /// including the stateful paths (lazy NFT expiry, due-probation decide,
  /// screening, Pd admission). The batch pipeline's slow lane calls this
  /// directly — it is the oracle the fast lanes are checked against.
  EngineVerdict classify_slow(const sim::Packet& p, std::uint64_t key,
                              double now);
  /// This packet's Pd coin (true = drop): a pure function of
  /// (coin_seed, key, uid), shared by the scalar walk and the pipeline's
  /// pass-3 precompute.
  bool coin(const sim::Packet& p, std::uint64_t key) const noexcept {
    return pd_coin(cfg_.drop_probability, cfg_.coin_seed, key, p.uid);
  }
  /// Resolves a probation according to the two half-window counts.
  TableKind decide(std::uint64_t key);
  void admit(const sim::Packet& p, std::uint64_t key);
  void schedule_probe(SftEntry& e);
  void schedule_decision(SftEntry& e);
  void cancel_entry_timers(const SftEntry& e);

  MaficConfig cfg_;
  Clock* clock_;
  TimerService* timers_;
  ProbeSink* probes_;
  FlowTables tables_;
  RttEstimator rtt_;
  const AddressPolicy* policy_;

  bool active_ = false;
  VictimSet victims_;
  /// wants() fast path: with exactly one protected destination (the
  /// common case) the victim test is an integer compare, not a hash-set
  /// probe. Maintained by activate()/deactivate().
  bool single_victim_ = false;
  util::Addr lone_victim_{};
  /// Per-victim quota weights, sorted by address (set_victim_weights);
  /// empty = equal split.
  std::vector<std::pair<util::Addr, double>> victim_weights_;
  double expires_at_ = 0.0;
  sim::TimerId expiry_timer_ = sim::kInvalidTimer;

  ClassificationCallback on_classified_;
  OfferedCallback on_offered_;
  Stats stats_;
  /// Keyed and iterated in address order (decision paths only touch it on
  /// probation resolution / screening, never per forwarded packet).
  std::map<util::Addr, VictimStats> victim_stats_;
};

}  // namespace mafic::core
