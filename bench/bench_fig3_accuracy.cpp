// Fig. 3 reproduction: attack packet dropping accuracy (alpha).
//   (a) alpha vs total traffic volume for Pd in {70, 80, 90}%
//   (b) alpha vs total traffic volume for per-zombie rates R
//       (paper legend: 100k-1M; we sweep 1/4/8 Mb/s per zombie instead:
//       at Gamma = 0.95 the Vt = 10..110 axis yields only 1-6 zombies
//       against the 3 Mb/s victim link, so 0.1-1 Mb/s per zombie would
//       barely load it; the rates are scaled up until the flood
//       congests the link, the regime Fig. 3 studies).

#include "bench_common.hpp"

int main() {
  using namespace mafic;
  using namespace mafic::bench;

  const auto alpha = [](const metrics::Metrics& m) { return m.alpha * 100; };

  run_figure("Fig. 3(a): accuracy vs traffic volume, by Pd", volume_axis(),
             pd_series(), alpha, "alpha(%)", {}, 2);

  std::vector<Series> rates;
  for (const double r : {8e6, 4e6, 1e6}) {
    rates.push_back({"R=" + std::to_string(int(r / 1e6)) + "Mb/s",
                     [r](scenario::ExperimentConfig& cfg) {
                       cfg.attack_army_total_bps = 0.0;  // per-zombie rate
                       cfg.attack_rate_bps = r;
                     }});
  }
  run_figure("Fig. 3(b): accuracy vs traffic volume, by source rate R",
             volume_axis(), rates, alpha, "alpha(%)", {}, 2);

  std::printf("\npaper: alpha stays within 99.2-99.8%% across all settings\n");
  return 0;
}
