// The named scenario catalog: list entries, run one by name, or smoke the
// whole catalog.
//
//   ./build/example_scenario_catalog                 list the catalog
//   ./build/example_scenario_catalog --smoke         run every entry small
//   ./build/example_scenario_catalog --detector      detector-mode battery
//   ./build/example_scenario_catalog <name>          run one entry (nominal)
//   ./build/example_scenario_catalog <name> --smoke  run one entry small
//
// The argless invocation only prints the table (CI runs every example
// with no arguments; nominal entries are internet-scale and take
// minutes). --smoke is the Release-job step: every entry shrunk by
// smoke_scale() and run once, fingerprint and headline metrics printed.
//
// docs/SCENARIOS.md documents the same catalog; the golden battery lives
// in tests/test_scenario_catalog.cpp.

#include <cstdio>
#include <cstring>
#include <string>

#include "scenario/scenario_catalog.hpp"

using namespace mafic;

static void list_catalog() {
  std::printf("%-17s %-12s %8s %9s %8s %7s  %s\n", "name", "shape",
              "victims", "legit", "zombies", "quota", "expected outcome");
  for (const auto& e : scenario::catalog()) {
    std::printf("%-17s %-12s %8zu %9zu %8zu %7.2f  %.60s...\n",
                e.spec.name.c_str(), scenario::to_string(e.spec.shape),
                e.spec.victims, e.spec.legit_flows, e.spec.zombies,
                e.spec.sft_victim_quota, e.expectation);
  }
  std::printf("\nrun one:   example_scenario_catalog <name> [--smoke]\n");
  std::printf("smoke all: example_scenario_catalog --smoke\n");
}

static int run_entry(const scenario::CatalogEntry& e, bool smoke) {
  const scenario::ScenarioSpec spec =
      smoke ? scenario::smoke_scale(e.spec) : e.spec;
  std::printf("--- %s (%s%s): %zu victims, %zu legit + %zu zombies ---\n",
              spec.name.c_str(), scenario::to_string(spec.shape),
              smoke ? ", smoke" : "", spec.victims, spec.legit_flows,
              spec.shape == scenario::AttackShape::kNone ? std::size_t{0}
                                                         : spec.zombies);

  const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
  const auto& r = out.result;
  std::printf("  timeline: %zu phases generated, %llu fired\n",
              out.timeline.size(),
              static_cast<unsigned long long>(out.phases_fired));
  std::printf("  alpha=%.3f theta_p=%.4f theta_n=%.4f Lr=%.4f\n",
              r.metrics.alpha, r.metrics.theta_p, r.metrics.theta_n,
              r.metrics.lr);
  std::printf("  sft: %llu admitted, %llu evicted (%llu cross-quota)\n",
              static_cast<unsigned long long>(r.sft_admissions),
              static_cast<unsigned long long>(r.sft_evictions),
              static_cast<unsigned long long>(r.quota_evictions));
  for (const auto& pv : r.per_victim) {
    std::printf("  victim %08x: nice=%llu malicious=%llu evicted=%llu\n",
                pv.victim,
                static_cast<unsigned long long>(pv.decided_nice),
                static_cast<unsigned long long>(pv.decided_malicious),
                static_cast<unsigned long long>(pv.evictions));
  }
  std::printf("  fingerprint: %016llx\n",
              static_cast<unsigned long long>(out.fingerprint));
  return 0;
}

// The detector-mode battery cases of tests/test_detector_catalog.cpp:
// smoke-scaled catalog shapes re-run under the asynchronous control
// plane. Prints the detector fingerprints the golden map pins.
static int run_detector_battery() {
  struct Case {
    const char* scenario;
    bool latch;
  };
  const Case cases[] = {
      {"carpet_bomb", true},
      {"spoof_churn", true},
      {"pulse_shrew", false},
  };
  for (const Case& c : cases) {
    const scenario::CatalogEntry* e = scenario::find_scenario(c.scenario);
    if (e == nullptr) return 1;
    scenario::ScenarioSpec spec = scenario::smoke_scale(e->spec);
    spec.detector_trigger = true;
    spec.detector_latch = c.latch;
    // Battery tuning mirrored from tests/test_detector_catalog.cpp:
    // hotter army than the smoke cap, |Dj| floor above ack-stream noise.
    spec.attack_total_bps = 24e6;
    spec.detector_min_packets = 150.0;
    spec.name =
        spec.name + (c.latch ? "+detector" : "+detector_unlatched");
    const scenario::ScenarioOutcome out = scenario::run_scenario(spec);
    std::printf("--- %s ---\n", spec.name.c_str());
    for (const auto& pv : out.result.per_victim) {
      std::printf(
          "  victim %08x: alarms=%llu trigger=%.3f clear=%.3f\n",
          pv.victim, static_cast<unsigned long long>(pv.alarms),
          pv.trigger_time, pv.clear_time);
    }
    std::printf("  atrs identified: %zu\n",
                out.result.atr.identified.size());
    std::printf("  detector fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    scenario::detector_fingerprint(out.result)));
  }
  std::printf("\ndetector battery OK\n");
  return 0;
}

int main(int argc, char** argv) {
  bool smoke = false;
  bool detector = false;
  std::string name;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--detector") == 0) {
      detector = true;
    } else {
      name = argv[i];
    }
  }

  if (detector) return run_detector_battery();
  if (name.empty() && !smoke) {
    list_catalog();
    return 0;
  }
  if (name.empty()) {
    for (const auto& e : scenario::catalog()) run_entry(e, /*smoke=*/true);
    std::printf("\nscenario catalog smoke OK (%zu entries)\n",
                scenario::catalog().size());
    return 0;
  }
  const scenario::CatalogEntry* e = scenario::find_scenario(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; entries:\n", name.c_str());
    for (const auto& known : scenario::catalog()) {
      std::fprintf(stderr, "  %s\n", known.spec.name.c_str());
    }
    return 1;
  }
  return run_entry(*e, smoke);
}
