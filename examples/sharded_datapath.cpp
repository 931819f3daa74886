// Sharded datapath: run the same fixed-seed scenario through one-engine
// ATR filters (num_shards = 1) and 4-shard ones, and show that the
// classification decisions are identical while the work spreads over
// the shards.
//
// Build & run:
//   cmake -B build -S . && cmake --build build
//   ./build/example_sharded_datapath

#include <cstdio>

#include "scenario/experiment.hpp"

int main() {
  using namespace mafic;

  scenario::ExperimentConfig base;
  base.seed = 42;
  base.total_flows = 40;
  base.router_count = 16;
  base.end_time = 8.0;

  std::printf("MAFIC sharded datapath — Vt=%zu flows, "
              "scalar vs 4 shards, seed=%llu\n\n",
              base.total_flows, static_cast<unsigned long long>(base.seed));

  scenario::ExperimentResult results[2];
  const std::size_t shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    scenario::ExperimentConfig cfg = base;
    cfg.num_shards = shard_counts[i];
    scenario::Experiment exp(cfg);
    results[i] = exp.run();
    const auto& r = results[i];

    std::printf("  %zu shard(s): %llu admissions -> %llu NFT, %llu PDT "
                "(+%llu screened); %llu probes; alpha %.2f%%\n",
                shard_counts[i],
                static_cast<unsigned long long>(r.sft_admissions),
                static_cast<unsigned long long>(r.moved_to_nft),
                static_cast<unsigned long long>(r.moved_to_pdt),
                static_cast<unsigned long long>(r.screened_sources),
                static_cast<unsigned long long>(r.probes_issued),
                r.metrics.alpha * 100.0);

    if (shard_counts[i] > 1) {
      // Per-shard share of the classification work on the first ATR.
      const auto* f = exp.mafic_filters().front();
      std::printf("    first ATR per-shard offered:");
      for (std::size_t s = 0; s < f->num_shards(); ++s) {
        std::printf(" %llu",
                    static_cast<unsigned long long>(
                        f->engine(s).stats().offered));
      }
      std::printf("\n");
    }
  }

  const bool identical =
      results[0].moved_to_nft == results[1].moved_to_nft &&
      results[0].moved_to_pdt == results[1].moved_to_pdt &&
      results[0].sft_admissions == results[1].sft_admissions &&
      results[0].probes_issued == results[1].probes_issued &&
      results[0].events_processed == results[1].events_processed;
  std::printf("\n  classification decisions %s across shard counts\n",
              identical ? "IDENTICAL" : "DIVERGED");
  return identical ? 0 : 1;
}
