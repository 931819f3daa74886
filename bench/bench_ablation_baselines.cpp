// Ablation A1: MAFIC vs the proportionate dropper of the authors' earlier
// work (ref. [2]) and an aggregate rate limiter (ref. [8] style). The paper
// motivates MAFIC by the "collateral damage" of flow-blind dropping; this
// bench quantifies it.

#include "bench_common.hpp"

int main() {
  using namespace mafic;

  struct Row {
    const char* name;
    scenario::DefenseKind kind;
  };
  const Row rows[] = {
      {"MAFIC", scenario::DefenseKind::kMafic},
      {"proportional", scenario::DefenseKind::kProportional},
      {"aggregate-limit", scenario::DefenseKind::kAggregate},
  };

  std::printf("== A1: defense comparison at Table II defaults ==\n");
  util::TablePrinter table({"defense", "alpha(%)", "beta(%)", "theta_p(%)",
                            "Lr(%)", "legit drops", "legit offered"});
  for (const auto& row : rows) {
    scenario::ExperimentConfig cfg;
    cfg.defense = row.kind;
    cfg.aggregate.limit_bps = 500e3;  // squeeze hard, like pushback would
    const auto m = scenario::run_averaged(cfg, bench::kSeedsPerPoint);
    table.add_row({row.name, util::TablePrinter::num(m.alpha * 100, 2),
                   util::TablePrinter::num(m.beta * 100, 1),
                   util::TablePrinter::num(m.theta_p * 100, 4),
                   util::TablePrinter::num(m.lr * 100, 2),
                   std::to_string(m.legit_dropped / bench::kSeedsPerPoint),
                   std::to_string(m.legit_offered / bench::kSeedsPerPoint)});
  }
  table.print();

  std::printf("\n== A1b: collateral damage vs Pd (MAFIC vs proportional) ==\n");
  util::TablePrinter t2({"Pd(%)", "MAFIC Lr(%)", "proportional Lr(%)"});
  for (const double pd : {0.5, 0.7, 0.9}) {
    scenario::ExperimentConfig cfg;
    cfg.mafic.drop_probability = pd;
    const auto mafic_m = scenario::run_averaged(cfg, bench::kSeedsPerPoint);
    cfg.defense = scenario::DefenseKind::kProportional;
    const auto prop_m = scenario::run_averaged(cfg, bench::kSeedsPerPoint);
    t2.add_row({util::TablePrinter::num(pd * 100, 0),
                util::TablePrinter::num(mafic_m.lr * 100, 2),
                util::TablePrinter::num(prop_m.lr * 100, 2)});
  }
  t2.print();
  std::printf("\nexpected: proportional dropping keeps hurting legitimate "
              "flows at ~Pd forever; MAFIC's collateral stays ~1-3%%\n");
  return 0;
}
