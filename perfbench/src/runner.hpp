#pragma once

/// \file runner.hpp
/// The gated half of the benchmark: one timed experiment per call,
/// repeated for a time budget, with the output checks every run must
/// pass. It uses only the scenario-level API (ScenarioSpec, compile,
/// generate_timeline / validate_timeline, Experiment setup / run /
/// attack_plan()->arm_phases / victim_addrs, fingerprint), so a refactor
/// inside a layer cannot change how the end-to-end numbers are taken.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/scenario_spec.hpp"

namespace perfbench {

/// Medians need a few runs even when the budget is shorter than that.
constexpr std::size_t kMinRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// Parses --workload, --seed, --seconds, --smoke and --trace-dir. Prints
/// a diagnostic and returns false on a malformed command line.
bool parse_options(int argc, char** argv, Options& out);

/// The outcome figures of one finished experiment.
struct Outcome {
  std::string failure;  ///< first failed output check; empty = all passed
  std::uint64_t fingerprint = 0;
  double alpha = 0.0;
  double lr = 0.0;
  double engage_s = 0.0;  ///< sim seconds from attack start to engagement
};

/// Output checks on one result: the simulator reached end_time, the
/// defense engaged (every victim, under the detector), and alpha,
/// theta_p and Lr are finite and in [0, 1].
Outcome check_result(const mafic::scenario::ScenarioSpec& spec,
                     const mafic::scenario::ExperimentResult& r);

/// Hands the spec-space timeline to a set-up experiment's army,
/// resolving carpet-bomb victim indices to the assigned addresses.
void arm_timeline(mafic::scenario::Experiment& exp,
                  const mafic::scenario::Timeline& tl);

struct TimedRun {
  Outcome outcome;
  double setup_s = 0.0;  ///< construct + setup() + arm the timeline
  double run_s = 0.0;    ///< Experiment::run()
};

/// Builds, validates and arms the timeline, then times one experiment.
TimedRun timed_run(const mafic::scenario::ScenarioSpec& spec);

/// Timed runs repeated for a wall-clock budget. A run that fails a check,
/// or whose fingerprint differs from the first run's, is counted as
/// failed and its numbers are dropped.
struct Batch {
  std::vector<TimedRun> passed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;  ///< the first run's
  std::vector<std::string> failures;
};

/// Runs at least `min_runs` experiments, then keeps starting new ones
/// while another is expected to finish within `seconds`.
Batch run_batch(const mafic::scenario::ScenarioSpec& spec, double seconds,
                std::size_t min_runs);

/// Counts `out` against the batch: failed when it fails a check or its
/// fingerprint differs from the batch's.
bool admit(Batch& batch, const Outcome& out);

double median(std::vector<double> v);

/// Peak resident set of this process, in MB (2^20 bytes).
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints one "name value unit" line per metric, then the result object
/// as the last line of standard output.
void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics);

}  // namespace perfbench
