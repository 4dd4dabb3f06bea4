#include "lira/core/policy.h"

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "lira/common/rng.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 3200.0, 3200.0};

class PolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));

    auto grid = StatisticsGrid::Create(kWorld, 32);
    ASSERT_TRUE(grid.ok());
    Rng rng(91);
    // Dense town in the lower-left; sparse elsewhere.
    for (int i = 0; i < 700; ++i) {
      grid->AddNode({rng.Uniform(0.0, 800.0), rng.Uniform(0.0, 800.0)},
                    rng.Uniform(5.0, 12.0));
    }
    for (int i = 0; i < 300; ++i) {
      grid->AddNode({rng.Uniform(0.0, 3200.0), rng.Uniform(0.0, 3200.0)},
                    rng.Uniform(15.0, 29.0));
    }
    QueryRegistry queries;
    for (int i = 0; i < 10; ++i) {
      queries.Add(Rect::CenteredAt(
          {rng.Uniform(300.0, 2900.0), rng.Uniform(300.0, 2900.0)}, 400.0));
    }
    grid->AddQueries(queries);
    stats_.emplace(*std::move(grid));

    ctx_.stats = &*stats_;
    ctx_.reduction = &*reduction_;
    ctx_.z = 0.5;
  }

  LiraConfig SmallLira() {
    LiraConfig config;
    config.l = 40;
    return config;
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  std::optional<StatisticsGrid> stats_;
  PolicyContext ctx_;
};

TEST_F(PolicyTest, RandomDropUsesDeltaMinAndServerSideShedding) {
  RandomDropPolicy policy;
  EXPECT_EQ(policy.name(), "RandomDrop");
  EXPECT_TRUE(policy.SheddingAtServer());
  auto plan = policy.BuildPlan(ctx_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumRegions(), 1);
  EXPECT_DOUBLE_EQ(plan->MaxDelta(), 5.0);
}

TEST_F(PolicyTest, UniformDeltaMatchesInverse) {
  UniformDeltaPolicy policy;
  EXPECT_FALSE(policy.SheddingAtServer());
  auto plan = policy.BuildPlan(ctx_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumRegions(), 1);
  EXPECT_NEAR(plan->MaxDelta(), reduction_->InverseEval(0.5), 1e-9);
}

TEST_F(PolicyTest, LiraGridProducesEvenRegionsWithThrottlers) {
  LiraGridPolicy policy(SmallLira());
  auto plan = policy.BuildPlan(ctx_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumRegions(), 36);  // floor(sqrt(40))^2
  const double area = plan->regions()[0].area.Area();
  for (const SheddingRegion& r : plan->regions()) {
    EXPECT_NEAR(r.area.Area(), area, 1e-6);
    EXPECT_GE(r.delta, 5.0);
    EXPECT_LE(r.delta, 100.0);
  }
}

TEST_F(PolicyTest, LiraProducesNonUniformRegions) {
  LiraPolicy policy(SmallLira());
  auto plan = policy.BuildPlan(ctx_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumRegions(), 40);
  double min_area = kWorld.Area();
  double max_area = 0.0;
  for (const SheddingRegion& r : plan->regions()) {
    min_area = std::min(min_area, r.area.Area());
    max_area = std::max(max_area, r.area.Area());
  }
  EXPECT_GT(max_area / min_area, 4.0);
}

TEST_F(PolicyTest, LiraRespectsFairnessThreshold) {
  LiraConfig config = SmallLira();
  config.fairness_threshold = 15.0;
  LiraPolicy policy(config);
  auto plan = policy.BuildPlan(ctx_);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->MaxDelta() - plan->MinDelta(), 15.0 + 1e-6);
}

TEST_F(PolicyTest, LiraPlanInaccuracyBeatsOrMatchesBaselines) {
  LiraPolicy lira(SmallLira());
  LiraGridPolicy lira_grid(SmallLira());
  UniformDeltaPolicy uniform;
  auto lira_plan = lira.BuildPlan(ctx_);
  auto grid_plan = lira_grid.BuildPlan(ctx_);
  auto uniform_plan = uniform.BuildPlan(ctx_);
  ASSERT_TRUE(lira_plan.ok());
  ASSERT_TRUE(grid_plan.ok());
  ASSERT_TRUE(uniform_plan.ok());
  // The whole point of the paper: planned inaccuracy ordering.
  EXPECT_LE(lira_plan->Inaccuracy(), grid_plan->Inaccuracy() + 1e-6);
  EXPECT_LE(grid_plan->Inaccuracy(),
            stats_->TotalQueries() * uniform_plan->MaxDelta() + 1e-6);
}

TEST_F(PolicyTest, ZExtremes) {
  LiraPolicy policy(SmallLira());
  ctx_.z = 1.0;
  auto full = policy.BuildPlan(ctx_);
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ(full->MaxDelta(), 5.0);  // no shedding needed
  ctx_.z = 0.0;
  auto none = policy.BuildPlan(ctx_);
  ASSERT_TRUE(none.ok());
  EXPECT_DOUBLE_EQ(none->MinDelta(), 100.0);  // infeasible -> all maxed
}

TEST_F(PolicyTest, InvalidContextRejected) {
  LiraPolicy policy(SmallLira());
  PolicyContext bad;
  EXPECT_FALSE(policy.BuildPlan(bad).ok());
  bad = ctx_;
  bad.z = 2.0;
  EXPECT_FALSE(policy.BuildPlan(bad).ok());
  bad.z = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(policy.BuildPlan(bad).ok());
  EXPECT_FALSE(UniformDeltaPolicy().BuildPlan(bad).ok());
}

TEST_F(PolicyTest, MakePolicyFactory) {
  const LiraConfig config = SmallLira();
  for (const char* name : {"Lira", "Lira-Grid", "UniformDelta", "RandomDrop"}) {
    auto policy = MakePolicy(name, config);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ((*policy)->name(), name);
    EXPECT_TRUE((*policy)->BuildPlan(ctx_).ok()) << name;
  }
  EXPECT_FALSE(MakePolicy("Nope", config).ok());
}

}  // namespace
}  // namespace lira
