#pragma once

/// \file scenario_catalog.hpp
/// The named scenario catalog: each entry is a nominal (internet-scale)
/// ScenarioSpec plus the paper motivation and the expected qualitative
/// outcome. docs/SCENARIOS.md renders the same table for humans;
/// examples/scenario_catalog.cpp lists/runs entries by name; the golden
/// battery (test_scenario_catalog.cpp) runs every entry at smoke scale
/// (smoke_scale) and pins FNV golden fingerprints.

#include <string_view>
#include <vector>

#include "scenario/scenario_spec.hpp"

namespace mafic::scenario {

struct CatalogEntry {
  ScenarioSpec spec;        ///< nominal scale (run smoke_scale for CI)
  const char* motivation;   ///< paper / related-work hook
  const char* expectation;  ///< expected qualitative outcome
};

/// The built-in catalog (stable order; names are unique).
const std::vector<CatalogEntry>& catalog();

/// Entry by spec name; nullptr when unknown.
const CatalogEntry* find_scenario(std::string_view name);

}  // namespace mafic::scenario
