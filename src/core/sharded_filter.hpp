#pragma once

/// \file sharded_filter.hpp
/// N MAFIC engines partitioned by flow-key hash — the multi-core ATR.
///
/// Shard-partition invariant: flow key `k` lives on shard
/// `shard_of(k) = top log2(N) bits of k`, and ONLY that shard ever touches
/// `k`'s table entry or probation timers. Each shard is a complete
/// EngineRuntime (flat store + arena, timer wheel, clock, probe counter)
/// with zero shared mutable state, so a driver may run one thread per
/// shard with no locks: equivalence with a single engine is structural,
/// not synchronized (test_core_sharded_filter pins it; the TSan CI job
/// watches the threaded bench driver).
///
/// Every shard draws its Pd coins from the same stateless hash of
/// (cfg.coin_seed, flow key, packet uid) (pd_coin.hpp), so a single
/// engine fed shard i's substream with the same config reproduces shard
/// i's decisions bit-for-bit, and one shard decides exactly as N do.
///
/// The ShardedFilter itself spawns no threads: it is the passive state +
/// routing layer. Drivers (bench_flow_store_scale's multi-threaded
/// harness, or a DPDK-style run-to-completion loop) own the threads and
/// feed each shard its pre-partitioned batches via engine(i).inspect_batch,
/// and drive time with advance_until().

#include <cstdint>
#include <memory>
#include <vector>

#include "core/standalone_runtime.hpp"

namespace mafic::core {

class ShardedFilter {
 public:
  /// Every shard is a self-contained EngineRuntime — manual clock,
  /// private wheel, counting probe sink. `shard_count` must be a power of
  /// two >= 1, because the partition is a bit slice; the constructor
  /// throws std::invalid_argument otherwise. Per-shard capacities come
  /// from `cfg` verbatim: N shards hold N times the flows of one engine,
  /// mirroring per-core table memory.
  ShardedFilter(std::size_t shard_count, const MaficConfig& cfg,
                const AddressPolicy* policy);

  std::size_t shard_count() const noexcept { return runtimes_.size(); }

  /// Home shard of a flow key: the top log2(N) bits. hash_label output is
  /// well mixed, and the flat store indexes with an independent Fibonacci
  /// multiply, so the slice costs no lookup clustering.
  std::size_t shard_of(std::uint64_t key) const noexcept {
    return shard_bits_ == 0 ? 0 : static_cast<std::size_t>(key >> shift_);
  }
  std::size_t shard_for(const sim::Packet& p) const noexcept {
    return shard_of(sim::hash_label(p.label));
  }

  /// Shard i's self-contained runtime.
  EngineRuntime& shard(std::size_t i) noexcept { return *runtimes_[i]; }
  const EngineRuntime& shard(std::size_t i) const noexcept {
    return *runtimes_[i];
  }
  FilterEngine& engine(std::size_t i) noexcept {
    return runtimes_[i]->engine();
  }
  const FilterEngine& engine(std::size_t i) const noexcept {
    return runtimes_[i]->engine();
  }

  // --- control plane (single-threaded, between datapath batches) -------
  void activate(const VictimSet& victims);
  void deactivate();
  bool active() const noexcept;

  /// Routes one packet to its home shard: gates first (cold packets
  /// forward without hashing, as in partition_span — every shard shares
  /// the activation state and victim set, so the first engine decides for
  /// all), then hashes once: the routing key doubles as the table key.
  // maficlint: hot
  EngineVerdict inspect(const sim::Packet& p) {
    if (!engine(0).wants(p)) return EngineVerdict::kForward;
    const std::uint64_t key = sim::hash_label(p.label);
    return engine(shard_of(key)).inspect_hashed(p, key);
  }

  /// Batch-inspects an indirect span in ARRIVAL order: runs
  /// partition_span, prefetches each hot key's home slot in its home
  /// shard's store a window ahead, then classifies sequentially,
  /// dispatching every packet to its home engine. Keeps
  /// the memory-level parallelism of FilterEngine::inspect_batch while
  /// preserving cross-shard arrival order — admissions schedule their
  /// probe/decision timers in span order, so a shared timer service
  /// fires them (and emits probes) exactly as a single engine would.
  void inspect_batch(const sim::Packet* const* pkts, std::size_t n,
                     EngineVerdict* out);

  /// Advances every shard's clock, firing due probation timers.
  void advance_until(double t);

  /// Sums engine stats across shards.
  FilterEngine::Stats aggregate_stats() const;
  /// Sums flow-table stats across shards. Per-shard quota accounting is
  /// strictly shard-local (each shard registers the same victim classes
  /// over its own ring set), so the sums are deterministic for a fixed
  /// per-shard operation sequence.
  FlowTables::Stats aggregate_tables_stats() const;
  /// Sums resident flows (all tables) across shards.
  std::size_t resident() const;

 private:
  /// The pre-hash pass over one span: gate (wants), label hash and
  /// home-shard id per packet, computed exactly once. Cold packets
  /// (hot[i] == 0) have undefined key/shard entries.
  struct SpanPartition {
    std::vector<std::uint8_t> hot;      ///< victim-bound and inspectable
    std::vector<std::uint64_t> keys;    ///< hash_label per hot packet
    std::vector<std::uint32_t> shard;   ///< home shard per hot packet
  };
  /// Fills out.hot/keys/shard for the n packets; the caller sizes the
  /// three arrays first.
  void partition_span(const sim::Packet* const* pkts, std::size_t n,
                      SpanPartition& out) const;

  unsigned shard_bits_ = 0;
  unsigned shift_ = 64;
  /// One self-contained runtime per shard.
  std::vector<std::unique_ptr<EngineRuntime>> runtimes_;
  /// inspect_batch scratch (reused; steady state allocates nothing).
  SpanPartition part_;
  /// Per-shard batch-start clock samples (one now() per shard per batch).
  std::vector<double> nows_;
};

}  // namespace mafic::core
