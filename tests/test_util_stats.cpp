#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace mafic::util {
namespace {

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.update(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesTowardConstant) {
  Ewma e(0.25);
  e.update(0.0);
  for (int i = 0; i < 100; ++i) e.update(8.0);
  EXPECT_NEAR(e.value(), 8.0, 1e-6);
}

TEST(Ewma, StepResponse) {
  Ewma e(0.5);
  e.update(0.0);
  e.update(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.update(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(Ewma, ResetForgets) {
  Ewma e(0.5);
  e.update(10.0);
  e.reset();
  EXPECT_FALSE(e.initialized());
  e.update(2.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.0);
}

}  // namespace
}  // namespace mafic::util
