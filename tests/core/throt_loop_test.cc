#include "lira/core/throt_loop.h"

#include <gtest/gtest.h>

namespace lira {
namespace {

ThrotLoop Make(int64_t capacity = 500) {
  auto loop = ThrotLoop::Create(capacity);
  EXPECT_TRUE(loop.ok());
  return *std::move(loop);
}

TEST(ThrotLoopTest, Validation) {
  EXPECT_FALSE(ThrotLoop::Create(1).ok());
  EXPECT_FALSE(ThrotLoop::Create(0).ok());
  EXPECT_TRUE(ThrotLoop::Create(2).ok());
}

TEST(ThrotLoopTest, StartsFullyOpen) {
  ThrotLoop loop = Make();
  EXPECT_DOUBLE_EQ(loop.z(), 1.0);
}

TEST(ThrotLoopTest, TargetUtilizationFormula) {
  EXPECT_DOUBLE_EQ(Make(500).TargetUtilization(), 1.0 - 1.0 / 500.0);
  EXPECT_DOUBLE_EQ(Make(2).TargetUtilization(), 0.5);
}

TEST(ThrotLoopTest, OverloadShrinksZ) {
  ThrotLoop loop = Make();
  const double z1 = loop.Update(/*lambda=*/2000.0, /*mu=*/1000.0);
  // u = 2 / (1 - 1/500) ~ 2.004 -> z ~ 0.499.
  EXPECT_NEAR(z1, 0.499, 0.001);
  EXPECT_LT(z1, 1.0);
  const double z2 = loop.Update(2000.0, 1000.0);
  EXPECT_LT(z2, z1);
}

TEST(ThrotLoopTest, UnderloadGrowsZBackToOne) {
  ThrotLoop loop = Make();
  loop.Update(4000.0, 1000.0);  // crash down
  const double low = loop.z();
  for (int i = 0; i < 20; ++i) {
    loop.Update(100.0, 1000.0);  // very light load
  }
  EXPECT_GT(loop.z(), low);
  EXPECT_DOUBLE_EQ(loop.z(), 1.0);
}

TEST(ThrotLoopTest, ZIsCappedAtOne) {
  ThrotLoop loop = Make();
  loop.Update(10.0, 1000.0);
  EXPECT_DOUBLE_EQ(loop.z(), 1.0);
}

TEST(ThrotLoopTest, ZRespectsFloor) {
  ThrotLoop loop = Make();
  for (int i = 0; i < 50; ++i) {
    loop.Update(100000.0, 1000.0);
  }
  EXPECT_DOUBLE_EQ(loop.z(), ThrotLoop::kMinZ);
  EXPECT_DOUBLE_EQ(loop.z(), 0.01);
}

TEST(ThrotLoopTest, ZeroArrivalsResetTowardsOpen) {
  ThrotLoop loop = Make();
  loop.Update(4000.0, 1000.0);
  ASSERT_LT(loop.z(), 1.0);
  loop.Update(0.0, 1000.0);
  EXPECT_DOUBLE_EQ(loop.z(), 1.0);
}

TEST(ThrotLoopTest, ConvergesWhenLoadScalesWithZ) {
  // Closed loop: the arrival rate is proportional to z (ideal source-
  // actuated shedding of a 2x overload). Fixed point: z* * 2000 = mu * rho*
  // -> z* ~ 0.499.
  ThrotLoop loop = Make();
  const double full_rate = 2000.0;
  const double mu = 1000.0;
  for (int i = 0; i < 100; ++i) {
    loop.Update(loop.z() * full_rate, mu);
  }
  EXPECT_NEAR(loop.z(), mu * loop.TargetUtilization() / full_rate, 1e-6);
  // After convergence the implied utilization matches the target.
  EXPECT_NEAR(loop.z() * full_rate / mu, loop.TargetUtilization(), 1e-6);
}

}  // namespace
}  // namespace lira
