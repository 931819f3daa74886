#pragma once

/// \file pd_coin.hpp
/// The Pd coin, the one source of randomness on the datapath: a stateless
/// hash of (seed, flow key, packet uid). Each packet gets an i.i.d.
/// Bernoulli(Pd) draw, yet a packet's fate does not depend on inspection
/// order, batching, or which engine inspects it — so N shards decide
/// exactly as one engine does. It stands in for the per-packet header
/// entropy a hardware datapath would hash. FilterEngine and the
/// ProportionalDropper baseline both draw through it.

#include <cstdint>

#include "util/hash.hpp"

namespace mafic::core {

/// True = drop. 53 uniform mantissa bits from a mix of seed, flow key and
/// uid, compared against `pd`; Pd outside (0, 1) is exact.
constexpr bool pd_coin(double pd, std::uint64_t seed, std::uint64_t key,
                       std::uint64_t uid) noexcept {
  if (pd <= 0.0) return false;
  if (pd >= 1.0) return true;
  const std::uint64_t h = util::mix64(seed ^ key ^ util::mix64(uid));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < pd;
}

}  // namespace mafic::core
