// Timed (untraced) benchmark run: repeats one workload's experiment for
// the time budget and prints the end-to-end metrics. Single process,
// single thread, one experiment at a time (closed loop).
//
//   mafic_perfbench --workload NAME --seed N --seconds S [--smoke]

#include <cstdio>

#include "runner.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) return 2;
  const auto* w = perfbench::find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const auto spec = perfbench::make_spec(*w, opt.seed, opt.smoke);
  const perfbench::Batch batch =
      perfbench::run_batch(spec, opt.seconds, perfbench::kMinRuns);
  for (const std::string& f : batch.failures) {
    std::fprintf(stderr, "failed run: %s\n", f.c_str());
  }
  if (batch.passed.empty()) {
    perfbench::emit(false, batch.attempted, batch.failed, {});
    return 0;
  }

  std::vector<double> setup;
  std::vector<double> run;
  for (const perfbench::TimedRun& r : batch.passed) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
  }
  // Runs that passed share one fingerprint, so their outcome figures are
  // identical; report the first.
  const perfbench::Outcome& o = batch.passed.front().outcome;
  std::printf("workload %s seed %llu: %zu runs, fingerprint %016llx\n",
              w->name.c_str(), static_cast<unsigned long long>(spec.seed),
              batch.passed.size(),
              static_cast<unsigned long long>(batch.fingerprint));
  perfbench::emit(batch.failed == 0, batch.attempted, batch.failed,
                  {
                      {"setup_s", perfbench::median(setup), "s"},
                      {"run_s", perfbench::median(run), "s"},
                      {"peak_rss_mb", perfbench::peak_rss_mb(), "MB"},
                      {"alpha", o.alpha, "fraction"},
                      {"lr", o.lr, "fraction"},
                  });
  return 0;
}
