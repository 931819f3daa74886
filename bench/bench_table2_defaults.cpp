// Table II reproduction: runs the default parameter set (Pd=90%, Vt=50,
// Gamma=95%, N=40, default zombie army) and prints every evaluation metric,
// per seed and averaged.

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace mafic;

  scenario::ExperimentConfig cfg;  // Table II defaults
  std::printf("== Table II default setting ==\n");
  std::printf("Pd=%.0f%%  Vt=%zu flows  Gamma=%.0f%%  N=%zu routers  "
              "army=%.0f Mb/s  victim link=%.0f Mb/s\n\n",
              cfg.mafic.drop_probability * 100, cfg.total_flows,
              cfg.tcp_fraction * 100, cfg.router_count,
              cfg.attack_army_total_bps / 1e6,
              cfg.domain.victim_bandwidth_bps / 1e6);

  util::TablePrinter table({"seed", "alpha(%)", "beta(%)", "theta_p(%)",
                            "theta_n(%)", "Lr(%)", "SFT", "NFT", "PDT",
                            "probes"});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    scenario::Experiment exp(cfg);
    const auto r = exp.run();
    const auto& m = r.metrics;
    table.add_row({std::to_string(seed),
                   util::TablePrinter::num(m.alpha * 100, 2),
                   util::TablePrinter::num(m.beta * 100, 1),
                   util::TablePrinter::num(m.theta_p * 100, 4),
                   util::TablePrinter::num(m.theta_n * 100, 3),
                   util::TablePrinter::num(m.lr * 100, 2),
                   std::to_string(r.sft_admissions),
                   std::to_string(r.moved_to_nft),
                   std::to_string(r.moved_to_pdt),
                   std::to_string(r.probes_issued)});
  }
  table.print();

  const auto mean = scenario::run_averaged(cfg, 5);
  std::printf("\nmean over 5 seeds: alpha=%.2f%% beta=%.1f%% "
              "theta_p=%.4f%% theta_n=%.3f%% Lr=%.2f%%\n",
              mean.alpha * 100, mean.beta * 100, mean.theta_p * 100,
              mean.theta_n * 100, mean.lr * 100);
  std::printf("paper bands:      alpha=99.2-99.8%% beta~95%% "
              "theta_p<0.06%% theta_n<0.9%% Lr<3%%\n");
  return 0;
}
