#include "runner.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <utility>

namespace perfbench {

namespace sc = mafic::scenario;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The CPUs this process may run on (empty when that cannot be read).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void move_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: stay put on error
}

}  // namespace

bool parse_options(int argc, char** argv, Options& out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      out.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value after %s\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      out.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      out.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *value == '-' || *end != '\0') {
        std::fprintf(stderr, "--seed wants a whole number, got '%s'\n",
                     value);
        return false;
      }
    } else if (arg == "--seconds") {
      out.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(out.seconds > 0.0)) {
        std::fprintf(stderr, "--seconds wants a positive number, got '%s'\n",
                     value);
        return false;
      }
    } else if (arg == "--trace-dir") {
      out.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i - 1]);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S [--smoke] "
                 "[--trace-dir DIR]\n",
                 argv[0]);
    return false;
  }
  return true;
}

Outcome check_result(const sc::ScenarioSpec& spec,
                     const sc::ExperimentResult& r) {
  Outcome out;
  out.fingerprint = sc::fingerprint(r);
  const auto& m = r.metrics;
  out.alpha = m.alpha;
  out.lr = m.lr;

  // The victim's link carries legitimate traffic to the very end, so its
  // offered-bytes series fills the bin before end_time only when the
  // simulator got there.
  const auto& bins = r.victim_offered_bytes.bins();
  const double width = r.victim_offered_bytes.bin_width();
  if (double(bins.size()) * width < spec.end_time - width ||
      bins.empty() || bins.back() <= 0.0) {
    out.failure = "the simulation stopped before end_time";
    return out;
  }
  if (!m.triggered) {
    out.failure = "the defense never engaged";
    return out;
  }
  double engage_sum = 0.0;
  for (const sc::VictimBreakdown& pv : r.per_victim) {
    // Scripted runs engage every victim at the notification; under the
    // detector each victim has its own first apply-event engagement.
    const double first = spec.detector_trigger ? pv.trigger_time
                                               : m.trigger_time;
    if (first < 0.0) {
      out.failure = "a protected victim was never engaged";
      return out;
    }
    engage_sum += first - spec.attack_start;
  }
  if (r.per_victim.size() != spec.victims) {
    out.failure = "the result does not list every protected victim";
    return out;
  }
  out.engage_s = engage_sum / double(r.per_victim.size());

  for (const double v : {m.alpha, m.theta_p, m.lr}) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      out.failure = "alpha, theta_p or Lr is not a fraction in [0, 1]";
      return out;
    }
  }
  return out;
}

void arm_timeline(sc::Experiment& exp, const sc::Timeline& tl) {
  if (tl.empty() || exp.attack_plan() == nullptr) return;
  std::vector<mafic::attack::AttackPlan::Phase> phases;
  phases.reserve(tl.size());
  for (const sc::TimelineEvent& ev : tl) {
    mafic::attack::AttackPlan::Phase ph;
    ph.at = ev.at;
    ph.action = ev.action;
    if (ev.action == mafic::attack::PhaseAction::kRetarget) {
      ph.target = exp.victim_addrs()[ev.victim];
    }
    phases.push_back(ph);
  }
  exp.attack_plan()->arm_phases(std::move(phases));
}

TimedRun timed_run(const sc::ScenarioSpec& spec) {
  TimedRun run;
  const sc::Timeline tl = sc::generate_timeline(spec);
  const std::string err = sc::validate_timeline(spec, tl);
  if (!err.empty()) {
    run.outcome.failure = "malformed timeline: " + err;
    return run;
  }
  const Clock::time_point t0 = Clock::now();
  auto exp = std::make_unique<sc::Experiment>(sc::compile(spec));
  exp->setup();
  arm_timeline(*exp, tl);
  const Clock::time_point t1 = Clock::now();
  const sc::ExperimentResult r = exp->run();
  run.run_s = seconds_since(t1);
  run.setup_s = std::chrono::duration<double>(t1 - t0).count();
  run.outcome = check_result(spec, r);
  return run;
}

bool admit(Batch& batch, const Outcome& out) {
  ++batch.attempted;
  std::string failure = out.failure;
  if (failure.empty() && batch.attempted > 1 &&
      out.fingerprint != batch.fingerprint) {
    failure = "fingerprint differs from the first run";
  }
  if (batch.attempted == 1) batch.fingerprint = out.fingerprint;
  if (failure.empty()) return true;
  ++batch.failed;
  batch.failures.push_back(std::move(failure));
  return false;
}

Batch run_batch(const sc::ScenarioSpec& spec, double seconds,
                std::size_t min_runs) {
  Batch batch;
  // Each experiment runs on the next allowed CPU in turn. On a shared host
  // one vCPU at a time can run ~30% slow for tens of seconds; rotating
  // spreads a run's experiments over every vCPU, so one slow vCPU does not
  // set the run's medians.
  const std::vector<int> cpus = allowed_cpus();
  const Clock::time_point t0 = Clock::now();
  while (true) {
    if (!cpus.empty()) move_to_cpu(cpus[batch.attempted % cpus.size()]);
    TimedRun run = timed_run(spec);
    if (admit(batch, run.outcome)) batch.passed.push_back(std::move(run));
    const double elapsed = seconds_since(t0);
    const double per_run = elapsed / double(batch.attempted);
    if (batch.attempted >= min_runs && elapsed + per_run > seconds) break;
  }
  return batch;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

// Shortest decimal that reads back as the same double: every digit the
// measurement has, and nothing invented.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %20s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
