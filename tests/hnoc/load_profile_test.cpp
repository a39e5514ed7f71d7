#include "hnoc/load_profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace hmpi::hnoc {
namespace {

TEST(LoadProfile, DefaultIsUnloaded) {
  LoadProfile p;
  EXPECT_TRUE(p.is_constant_one());
  EXPECT_DOUBLE_EQ(p.multiplier_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.multiplier_at(1e9), 1.0);
}

TEST(LoadProfile, ConstantMultiplier) {
  LoadProfile p = LoadProfile::constant(0.5);
  EXPECT_DOUBLE_EQ(p.multiplier_at(-100.0), 0.5);
  EXPECT_DOUBLE_EQ(p.multiplier_at(100.0), 0.5);
}

TEST(LoadProfile, StepFunctionSemantics) {
  LoadProfile p({{10.0, 0.5}, {20.0, 2.0}});
  EXPECT_DOUBLE_EQ(p.multiplier_at(0.0), 1.0);   // before first step
  EXPECT_DOUBLE_EQ(p.multiplier_at(10.0), 0.5);  // boundary inclusive
  EXPECT_DOUBLE_EQ(p.multiplier_at(15.0), 0.5);
  EXPECT_DOUBLE_EQ(p.multiplier_at(25.0), 2.0);
}

TEST(LoadProfile, StepsSortedOnConstruction) {
  LoadProfile p({{20.0, 2.0}, {10.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.multiplier_at(15.0), 0.5);
}

TEST(LoadProfile, RejectsNonPositiveMultiplier) {
  EXPECT_THROW(LoadProfile({{0.0, 0.0}}), hmpi::InvalidArgument);
  EXPECT_THROW(LoadProfile({{0.0, -1.0}}), hmpi::InvalidArgument);
}

TEST(LoadProfile, RejectsNonFiniteMultiplier) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LoadProfile({{0.0, inf}}), hmpi::InvalidArgument);
  EXPECT_THROW(LoadProfile({{0.0, std::nan("")}}), hmpi::InvalidArgument);
  EXPECT_THROW(LoadProfile::constant(inf), hmpi::InvalidArgument);
}

TEST(LoadProfile, RejectsDuplicateTimes) {
  EXPECT_THROW(LoadProfile({{1.0, 0.5}, {1.0, 2.0}}), hmpi::InvalidArgument);
}

TEST(LoadProfile, FinishTimeUnloaded) {
  LoadProfile p;
  // 100 units at 50 units/s takes 2 s.
  EXPECT_DOUBLE_EQ(p.finish_time(3.0, 100.0, 50.0), 5.0);
}

TEST(LoadProfile, FinishTimeZeroUnits) {
  LoadProfile p;
  EXPECT_DOUBLE_EQ(p.finish_time(3.0, 0.0, 50.0), 3.0);
}

TEST(LoadProfile, FinishTimeCrossesStep) {
  // Full speed until t=10, half speed after.
  LoadProfile p({{10.0, 0.5}});
  // Start at t=8 with 100 units at 25 u/s: 2s at full (50 units), then
  // 50 units at 12.5 u/s = 4 s -> finish at 14.
  EXPECT_DOUBLE_EQ(p.finish_time(8.0, 100.0, 25.0), 14.0);
}

TEST(LoadProfile, FinishTimeStartsInsideStep) {
  LoadProfile p({{10.0, 0.5}, {20.0, 1.0}});
  // Start at t=12 with 100 units at 25 u/s: 8s at 12.5 (100 units) ends
  // exactly at 20.
  EXPECT_DOUBLE_EQ(p.finish_time(12.0, 100.0, 25.0), 20.0);
}

TEST(LoadProfile, FinishTimeMultipleSegments) {
  LoadProfile p({{0.0, 1.0}, {1.0, 0.1}, {2.0, 1.0}});
  // 15 units at 10 u/s starting at 0: 1 s * 10 + 1 s * 1 -> 11 units at t=2,
  // remaining 4 units at 10 u/s -> finish 2.4.
  EXPECT_NEAR(p.finish_time(0.0, 15.0, 10.0), 2.4, 1e-12);
}

TEST(LoadProfile, FinishTimeRejectsBadInputs) {
  LoadProfile p;
  EXPECT_THROW(p.finish_time(0.0, -1.0, 10.0), hmpi::InvalidArgument);
  EXPECT_THROW(p.finish_time(0.0, 1.0, 0.0), hmpi::InvalidArgument);
}

TEST(LoadProfile, HeavierLoadFinishesLater) {
  LoadProfile light = LoadProfile::constant(0.9);
  LoadProfile heavy = LoadProfile::constant(0.3);
  EXPECT_LT(light.finish_time(0.0, 100.0, 10.0),
            heavy.finish_time(0.0, 100.0, 10.0));
}

}  // namespace
}  // namespace hmpi::hnoc
