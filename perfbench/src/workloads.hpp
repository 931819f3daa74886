#pragma once

/// \file workloads.hpp
/// The benchmark's workloads: ScenarioSpec literals owned here, not read
/// from scenario::catalog(), so retuning the catalog cannot move the
/// benchmark. Only the seed comes from the command line.

#include <cstdint>
#include <string_view>
#include <vector>

#include "scenario/scenario_spec.hpp"

namespace perfbench {

/// Every workload's full-size spec, keyed by spec.name, in a stable
/// order. Each carries the seed it was sized with.
const std::vector<mafic::scenario::ScenarioSpec>& workloads();

/// Workload by name; nullptr when unknown.
const mafic::scenario::ScenarioSpec* find_workload(std::string_view name);

/// The spec one run executes: the workload's literal with `seed`
/// substituted, shrunk to a seconds-long run when `smoke` is set.
mafic::scenario::ScenarioSpec make_spec(
    const mafic::scenario::ScenarioSpec& workload, std::uint64_t seed,
    bool smoke);

}  // namespace perfbench
