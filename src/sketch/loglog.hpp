#pragma once

/// \file loglog.hpp
/// Durand–Flajolet LogLog cardinality counter (their reference [3]) with
/// stochastic averaging over m = 2^k buckets. This is the O(log log n)
/// per-router statistic the set-union counting pushback scheme keeps for
/// the packet sets Si (injected at router i) and Di (terminating at i).
///
/// Two counters are *mergeable* (register-wise max) exactly when they share
/// the same precision and hash seed; the merge of the counters of two sets
/// estimates |A ∪ B| — the operation behind the traffic matrix
/// a_ij = |Si| + |Dj| − |Si ∪ Dj|.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/hash.hpp"

namespace mafic::sketch {

class LogLog {
 public:
  /// `precision_bits` = k, giving m = 2^k registers; standard error is
  /// roughly 1.30 / sqrt(m). `hash_seed` must match across counters that
  /// will be merged.
  explicit LogLog(unsigned precision_bits = 10, std::uint64_t hash_seed = 0);

  /// Adds one item (e.g. a packet uid).
  void add(std::uint64_t item) noexcept;

  /// Durand–Flajolet estimator: alpha_m * m * 2^{mean(registers)}.
  double estimate() const noexcept;

  /// Register-wise max merge; requires compatible() with `other`.
  void merge(const LogLog& other);

  /// Union estimate of two compatible counters without mutating either:
  /// exactly the estimate() of `a` merged with `b`. Throws like merge().
  static double union_estimate(const LogLog& a, const LogLog& b);

  bool compatible(const LogLog& other) const noexcept {
    return registers_.size() == other.registers_.size() &&
           hash_seed_ == other.hash_seed_;
  }

  void reset() noexcept {
    std::fill(registers_.begin(), registers_.end(), std::uint8_t{0});
    items_added_ = 0;
  }

  std::size_t register_count() const noexcept { return registers_.size(); }
  std::uint64_t hash_seed() const noexcept { return hash_seed_; }
  std::uint64_t items_added() const noexcept { return items_added_; }

  /// Storage footprint in bytes (the paper's O(log log n) selling point:
  /// 5-bit registers suffice; we spend a byte each for simplicity).
  std::size_t memory_bytes() const noexcept { return registers_.size(); }

  const std::vector<std::uint8_t>& registers() const noexcept {
    return registers_;
  }

 private:
  /// The estimator over a register sum and a count of zero registers.
  double estimate_from(std::uint32_t sum, std::uint32_t zeros) const noexcept;

  unsigned precision_bits_;
  std::uint64_t hash_seed_;
  std::vector<std::uint8_t> registers_;
  std::uint64_t items_added_ = 0;
  double alpha_m_;
};

/// alpha_m constant for the LogLog estimator (asymptotic 0.39701 with
/// small-m corrections per Durand–Flajolet).
double loglog_alpha(std::size_t m) noexcept;

}  // namespace mafic::sketch
