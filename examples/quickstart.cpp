// Quickstart: run the paper's default scenario (Table II: Vt=50 flows, 95%
// TCP, Pd=90%, N=40 routers) with MAFIC at the attack-transit routers and
// print the five evaluation metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "scenario/experiment.hpp"

int main() {
  using namespace mafic;

  scenario::ExperimentConfig cfg;  // Table II defaults
  cfg.seed = 42;

  std::printf("MAFIC quickstart — Vt=%zu flows, Gamma=%.0f%% TCP, Pd=%.0f%%, "
              "N=%zu routers\n",
              cfg.total_flows, cfg.tcp_fraction * 100.0,
              cfg.mafic.drop_probability * 100.0, cfg.router_count);

  scenario::Experiment exp(cfg);
  const auto result = exp.run();
  const auto& m = result.metrics;

  std::printf("\n%s\n\n", metrics::format_metrics(m).c_str());
  std::printf("  attack dropping accuracy (alpha) : %6.2f %%\n",
              m.alpha * 100.0);
  std::printf("  traffic reduction rate (beta)    : %6.1f %%\n",
              m.beta * 100.0);
  std::printf("  false positive rate (theta_p)    : %8.4f %%\n",
              m.theta_p * 100.0);
  std::printf("  false negative rate (theta_n)    : %7.3f %%\n",
              m.theta_n * 100.0);
  std::printf("  legitimate drop rate (Lr)        : %6.2f %%\n",
              m.lr * 100.0);

  std::printf("\n  flows: %zu legitimate + %zu attack; %llu sim events\n",
              result.legit_flows, result.attack_flows,
              static_cast<unsigned long long>(result.events_processed));
  std::printf("  tables: %llu SFT admissions -> %llu NFT, %llu PDT "
              "(+%llu screened); %llu probes\n",
              static_cast<unsigned long long>(result.sft_admissions),
              static_cast<unsigned long long>(result.moved_to_nft),
              static_cast<unsigned long long>(result.moved_to_pdt),
              static_cast<unsigned long long>(result.screened_sources),
              static_cast<unsigned long long>(result.probes_issued));
  return 0;
}
