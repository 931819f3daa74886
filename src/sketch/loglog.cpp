#include "sketch/loglog.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace mafic::sketch {

double loglog_alpha(std::size_t m) noexcept {
  // Asymptotic constant; the small-m bias is below our needs for m >= 64.
  (void)m;
  return 0.39701;
}

LogLog::LogLog(unsigned precision_bits, std::uint64_t hash_seed)
    : precision_bits_(precision_bits),
      hash_seed_(hash_seed),
      registers_(std::size_t{1} << precision_bits, 0),
      alpha_m_(loglog_alpha(std::size_t{1} << precision_bits)) {
  if (precision_bits < 4 || precision_bits > 20) {
    throw std::invalid_argument("LogLog precision_bits must be in [4, 20]");
  }
}

void LogLog::add(std::uint64_t item) noexcept {
  const std::uint64_t h = util::seeded_hash(hash_seed_, item);
  const std::size_t bucket = h >> (64 - precision_bits_);
  const std::uint64_t rest = h << precision_bits_;
  // Rank = position of the leftmost 1-bit in the remaining bits (1-based).
  const int rank =
      rest == 0 ? static_cast<int>(64 - precision_bits_) + 1
                : std::countl_zero(rest) + 1;
  auto& reg = registers_[bucket];
  reg = std::max(reg, static_cast<std::uint8_t>(rank));
  ++items_added_;
}

double LogLog::estimate() const noexcept {
  // Ranks are <= 61 and there are <= 2^20 registers, so integer sums are
  // exact (and vectorize); they convert to the same double a
  // double-accumulating loop would reach.
  std::uint32_t sum = 0;
  std::uint32_t zeros = 0;
  for (const std::uint8_t r : registers_) {
    sum += r;
    zeros += r == 0 ? 1u : 0u;
  }
  return estimate_from(sum, zeros);
}

double LogLog::estimate_from(std::uint32_t sum,
                             std::uint32_t zeros) const noexcept {
  const auto m = static_cast<double>(registers_.size());
  const double raw = alpha_m_ * m * std::exp2(static_cast<double>(sum) / m);
  // Small-range correction (super-LogLog style): the raw estimator floors
  // at alpha_m * m, which would make near-empty per-epoch router sketches
  // look like hundreds of packets. Linear counting over the untouched
  // registers is accurate in exactly that regime.
  if (zeros > 0 && raw < 3.0 * m) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void LogLog::merge(const LogLog& other) {
  if (!compatible(other)) {
    throw std::invalid_argument("merging incompatible LogLog counters");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  items_added_ += other.items_added_;
}

double LogLog::union_estimate(const LogLog& a, const LogLog& b) {
  if (!a.compatible(b)) {
    throw std::invalid_argument("merging incompatible LogLog counters");
  }
  // The estimate of a copy of `a` merged with `b`, in one register-wise
  // max pass without the copy.
  const std::uint8_t* ra = a.registers_.data();
  const std::uint8_t* rb = b.registers_.data();
  std::uint32_t sum = 0;
  std::uint32_t zeros = 0;
  for (std::size_t i = 0; i < a.registers_.size(); ++i) {
    const std::uint8_t r = std::max(ra[i], rb[i]);
    sum += r;
    zeros += r == 0 ? 1u : 0u;
  }
  return a.estimate_from(sum, zeros);
}

}  // namespace mafic::sketch
