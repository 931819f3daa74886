#include "core/sharded_filter.hpp"

#include <bit>
#include <stdexcept>

#include "core/verdict_pipeline.hpp"

namespace mafic::core {

ShardedFilter::ShardedFilter(std::size_t shard_count, const MaficConfig& cfg,
                             const AddressPolicy* policy) {
  if (!std::has_single_bit(shard_count)) {
    throw std::invalid_argument(
        "ShardedFilter: shard_count must be a power of two >= 1");
  }
  shard_bits_ = static_cast<unsigned>(std::countr_zero(shard_count));
  shift_ = 64 - shard_bits_;
  runtimes_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    runtimes_.push_back(std::make_unique<EngineRuntime>(cfg, policy));
  }
}

void ShardedFilter::activate(const VictimSet& victims) {
  for (auto& rt : runtimes_) rt->engine().activate(victims);
}

void ShardedFilter::deactivate() {
  for (auto& rt : runtimes_) rt->engine().deactivate();
}

bool ShardedFilter::active() const noexcept { return engine(0).active(); }

// maficlint: hot
void ShardedFilter::partition_span(const sim::Packet* const* pkts,
                                   std::size_t n, SpanPartition& out) const {
  // Every shard shares the activation state and victim set (the control
  // plane fans out), so the first engine's hot gate decides for all of
  // them — cold packets skip the hash and the shard-id slice.
  const FilterEngine& gate = engine(0);
  const auto one = [&](std::size_t i) {
    const bool h = gate.wants(*pkts[i]);
    out.hot[i] = h ? 1 : 0;
    if (h) {
      out.keys[i] = sim::hash_label(pkts[i]->label);
      out.shard[i] = static_cast<std::uint32_t>(shard_of(out.keys[i]));
    }
  };
  // 4-wide unroll: the mix64 chains of consecutive packets carry no
  // dependence on each other, so the multiplies schedule in parallel.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    one(i + 0);
    one(i + 1);
    one(i + 2);
    one(i + 3);
  }
  for (; i < n; ++i) one(i);
}

void ShardedFilter::inspect_batch(const sim::Packet* const* pkts,
                                  std::size_t n, EngineVerdict* out) {
  part_.hot.resize(n);
  part_.keys.resize(n);
  part_.shard.resize(n);
  partition_span(pkts, n, part_);
  // One clock sample per shard per batch (drivers advance time only
  // between batches); the pipeline's now_at indexes this by home shard.
  nows_.resize(runtimes_.size());
  for (std::size_t s = 0; s < runtimes_.size(); ++s) {
    nows_[s] = engine(s).now();
  }
  auto engine_at = [this](std::size_t j) -> FilterEngine& {
    return engine(part_.shard[j]);
  };
  auto packet_at = [pkts](std::size_t j) -> const sim::Packet& {
    return *pkts[j];
  };
  auto now_at = [this](std::size_t j) { return nows_[part_.shard[j]]; };

  constexpr std::size_t kWindow = VerdictPipeline::kWindow;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t m = n - i < kWindow ? n - i : kWindow;
    for (std::size_t j = 0; j < m; ++j) {
      if (part_.hot[i + j] != 0) {
        engine(part_.shard[i + j]).tables().prefetch(part_.keys[i + j]);
      }
    }
    // kRegate mirrors the old per-packet inspect_hashed walk: the
    // active/victim/control gate re-applies inside the verdict pass. One
    // interleaved arrival-order walk across shards, so cross-shard timer
    // and probe scheduling order is exactly the single-engine order.
    auto engine_off = [&engine_at, i](std::size_t j) -> FilterEngine& {
      return engine_at(i + j);
    };
    auto packet_off = [&packet_at, i](std::size_t j) -> const sim::Packet& {
      return packet_at(i + j);
    };
    auto now_off = [&now_at, i](std::size_t j) { return now_at(i + j); };
    VerdictPipeline::window<true>(engine_off, packet_off, now_off,
                                  part_.keys.data() + i,
                                  part_.hot.data() + i, m, out + i);
    i += m;
  }
}

void ShardedFilter::advance_until(double t) {
  for (auto& s : runtimes_) s->advance_until(t);
}

FilterEngine::Stats ShardedFilter::aggregate_stats() const {
  FilterEngine::Stats sum;
  for (const auto& rt : runtimes_) {
    const FilterEngine::Stats& st = rt->engine().stats();
    sum.offered += st.offered;
    sum.forwarded += st.forwarded;
    sum.dropped_probation += st.dropped_probation;
    sum.dropped_pdt += st.dropped_pdt;
    sum.screened_sources += st.screened_sources;
    sum.probes_issued += st.probes_issued;
    sum.decided_nice += st.decided_nice;
    sum.decided_malicious += st.decided_malicious;
  }
  return sum;
}

FlowTables::Stats ShardedFilter::aggregate_tables_stats() const {
  FlowTables::Stats sum;
  for (const auto& rt : runtimes_) {
    const FlowTables::Stats& st = rt->engine().tables().stats();
    sum.sft_admissions += st.sft_admissions;
    sum.sft_evictions += st.sft_evictions;
    sum.quota_evictions += st.quota_evictions;
    sum.moved_to_nft += st.moved_to_nft;
    sum.moved_to_pdt += st.moved_to_pdt;
    sum.direct_pdt += st.direct_pdt;
    sum.nft_expirations += st.nft_expirations;
    sum.flushes += st.flushes;
  }
  return sum;
}

std::size_t ShardedFilter::resident() const {
  std::size_t n = 0;
  for (const auto& rt : runtimes_) n += rt->engine().tables().resident();
  return n;
}

}  // namespace mafic::core
