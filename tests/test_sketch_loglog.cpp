#include <gtest/gtest.h>

#include <cmath>

#include "sketch/loglog.hpp"
#include "sketch/set_union.hpp"

namespace mafic::sketch {
namespace {

TEST(LogLog, EmptyEstimatesNearZero) {
  LogLog c(10);
  EXPECT_LT(c.estimate(), c.register_count() * 0.5);
  EXPECT_EQ(c.items_added(), 0u);
}

TEST(LogLog, RejectsBadPrecision) {
  EXPECT_THROW(LogLog(2), std::invalid_argument);
  EXPECT_THROW(LogLog(25), std::invalid_argument);
}

TEST(LogLog, DuplicatesDoNotInflate) {
  LogLog c(10);
  for (int rep = 0; rep < 100; ++rep) {
    for (std::uint64_t i = 0; i < 100; ++i) c.add(i);
  }
  // 100 distinct items added 100 times each. LogLog is noisy at tiny
  // cardinalities; just verify it is nowhere near 10,000.
  EXPECT_LT(c.estimate(), 1000.0);
}

class LogLogAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogLogAccuracy, WithinFifteenPercent) {
  const std::uint64_t n = GetParam();
  LogLog c(11);  // m = 2048, stderr ~ 1.3/sqrt(2048) ~ 2.9%
  for (std::uint64_t i = 0; i < n; ++i) c.add(i * 0x9E3779B97F4A7C15ULL + i);
  EXPECT_NEAR(c.estimate(), double(n), double(n) * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, LogLogAccuracy,
                         ::testing::Values(5000, 20000, 100000, 500000));

TEST(LogLog, MergeEqualsUnionOfStreams) {
  LogLog a(10, 42), b(10, 42), whole(10, 42);
  for (std::uint64_t i = 0; i < 40000; ++i) {
    if (i % 2 == 0) a.add(i);
    if (i % 3 == 0) b.add(i);
    if (i % 2 == 0 || i % 3 == 0) whole.add(i);
  }
  LogLog merged = a;
  merged.merge(b);
  EXPECT_NEAR(merged.estimate(), whole.estimate(), 1e-9);
}

TEST(LogLog, MergeRequiresCompatibility) {
  LogLog a(10, 1), b(10, 2), c(11, 1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);  // different seed
  EXPECT_THROW(a.merge(c), std::invalid_argument);  // different precision
  EXPECT_THROW(LogLog::union_estimate(a, b), std::invalid_argument);
  EXPECT_THROW(LogLog::union_estimate(a, c), std::invalid_argument);
  EXPECT_FALSE(a.compatible(b));
  LogLog d(10, 1);
  EXPECT_TRUE(a.compatible(d));
}

TEST(LogLog, UnionEstimateDoesNotMutate) {
  LogLog a(10), b(10);
  for (std::uint64_t i = 0; i < 1000; ++i) a.add(i);
  for (std::uint64_t i = 500; i < 1500; ++i) b.add(i);
  const double ea = a.estimate();
  (void)LogLog::union_estimate(a, b);
  EXPECT_DOUBLE_EQ(a.estimate(), ea);
}

/// The estimator recomputed from registers() with a double accumulator;
/// `linear` reports whether it took the linear-counting branch.
double reference_estimate(const LogLog& c, bool* linear = nullptr) {
  const auto m = static_cast<double>(c.register_count());
  double sum = 0.0;
  std::size_t zeros = 0;
  for (const auto r : c.registers()) {
    sum += static_cast<double>(r);
    if (r == 0) ++zeros;
  }
  const double raw = loglog_alpha(c.register_count()) * m * std::exp2(sum / m);
  const bool small = zeros > 0 && raw < 3.0 * m;
  if (linear != nullptr) *linear = small;
  return small ? m * std::log(m / static_cast<double>(zeros)) : raw;
}

// Fill levels from a handful of items (linear counting) to many items per
// register (raw estimator), at the smallest, default and a large
// precision. The integer-summing estimate() and the copy-free union must
// give exactly the doubles of the reference and of an explicit merge.
TEST(LogLog, UnionEstimateIsBitExactMerge) {
  bool saw_linear = false;
  bool saw_raw = false;
  for (const unsigned p : {4u, 10u, 16u}) {
    for (const double per_register : {0.05, 0.5, 2.0, 20.0}) {
      LogLog a(p, 9), b(p, 9);
      const auto n = static_cast<std::uint64_t>(
          per_register * static_cast<double>(a.register_count()));
      for (std::uint64_t i = 0; i < n; ++i) a.add(i);
      for (std::uint64_t i = n / 2; i < n + n / 2; ++i) b.add(i);
      EXPECT_EQ(a.estimate(), reference_estimate(a)) << "p=" << p;
      LogLog merged = a;
      merged.merge(b);
      bool linear = false;
      const double expect = merged.estimate();
      EXPECT_EQ(expect, reference_estimate(merged, &linear))
          << "p=" << p << " n=" << n;
      EXPECT_EQ(LogLog::union_estimate(a, b), expect)
          << "p=" << p << " n=" << n;
      EXPECT_EQ(LogLog::union_estimate(b, a), expect)
          << "p=" << p << " n=" << n;
      (linear ? saw_linear : saw_raw) = true;
    }
  }
  EXPECT_TRUE(saw_linear);
  EXPECT_TRUE(saw_raw);
}

TEST(LogLog, ResetClearsRegisters) {
  LogLog c(10);
  for (std::uint64_t i = 0; i < 10000; ++i) c.add(i);
  c.reset();
  EXPECT_EQ(c.items_added(), 0u);
  EXPECT_LT(c.estimate(), 500.0);
}

TEST(LogLog, MemoryFootprintMatchesRegisters) {
  EXPECT_EQ(LogLog(10).memory_bytes(), 1024u);
  EXPECT_EQ(LogLog(12).memory_bytes(), 4096u);
}

TEST(SetUnion, IntersectionEstimateAccuracy) {
  // |A| = 60k, |B| = 60k, |A ∩ B| = 20k.
  LogLog a(12, 7), b(12, 7);
  for (std::uint64_t i = 0; i < 60000; ++i) a.add(i);
  for (std::uint64_t i = 40000; i < 100000; ++i) b.add(i);
  const double inter = intersection_estimate(a, b);
  // Inclusion-exclusion amplifies sketch error; allow a generous band.
  EXPECT_NEAR(inter, 20000.0, 8000.0);
}

TEST(SetUnion, DisjointSetsEstimateNearZero) {
  LogLog a(12, 7), b(12, 7);
  for (std::uint64_t i = 0; i < 50000; ++i) a.add(i);
  for (std::uint64_t i = 100000; i < 150000; ++i) b.add(i);
  // Clamped at zero; noise may produce a small positive value.
  EXPECT_LT(intersection_estimate(a, b), 7000.0);
  EXPECT_GE(intersection_estimate(a, b), 0.0);
}

TEST(SetUnion, OverlapFractionBounds) {
  LogLog a(11, 3), b(11, 3);
  for (std::uint64_t i = 0; i < 30000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_GT(overlap_fraction(a, b), 0.8);  // identical sets
  EXPECT_LE(overlap_fraction(a, b), 1.0);
}

TEST(Sketch, LogLogMeanErrorStaysBelowFifteenPercent) {
  // Mean absolute relative error at p = 10 over several disjoint
  // streams: the detector's |Dj| rule reads these estimates every epoch.
  double ll_err = 0;
  const int kRuns = 8;
  const std::uint64_t n = 50000;
  for (int run = 0; run < kRuns; ++run) {
    LogLog ll(10, 99);
    const std::uint64_t base = run * 10'000'000ULL;
    for (std::uint64_t i = 0; i < n; ++i) ll.add(base + i);
    ll_err += std::abs(ll.estimate() - double(n)) / double(n);
  }
  EXPECT_LT(ll_err / kRuns, 0.15);
}

}  // namespace
}  // namespace mafic::sketch
