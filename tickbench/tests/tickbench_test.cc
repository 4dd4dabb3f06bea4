// Correctness tests for the tick-ledger benchmark: the city loop is the
// simulator's frame loop, serve answers are exact, metro is reproducible at
// any thread count and its THROTLOOP engages, plan payloads round-trip, and
// the ledger's span folding and exact-count gate behave.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "fleet.h"
#include "ledger.h"
#include "lira/core/policy.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"
#include "workloads.h"

namespace tickbench {
namespace {

TEST(CityLoopTest, ReproducesRunSimulationBitwise) {
  CitySpec spec = CityPreset(3000, 42);
  spec.world.trace_frames = 300;
  std::map<std::string, double> setup;
  auto city_world = BuildCityWorld(spec.world, &setup);
  ASSERT_TRUE(city_world.ok());
  EXPECT_EQ(setup.size(), 5u);
  CityTotals totals;
  const Episode ep =
      RunCityEpisode(spec, *city_world, /*traced=*/false, "", &totals);
  ASSERT_TRUE(ep.failures.empty()) << ep.failures.front();

  // RunSimulation runs on the library's own BuildWorld.
  auto world = lira::BuildWorld(spec.world);
  ASSERT_TRUE(world.ok());
  const lira::LiraPolicy policy(spec.lira);
  auto result = lira::RunSimulation(*world, policy, spec.sim);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const lira::ErrorMetrics& want = result->metrics;
  EXPECT_EQ(totals.metrics.mean_containment_error,
            want.mean_containment_error);
  EXPECT_EQ(totals.metrics.mean_position_error, want.mean_position_error);
  EXPECT_EQ(totals.metrics.containment_error_stddev,
            want.containment_error_stddev);
  EXPECT_EQ(totals.metrics.containment_error_cov, want.containment_error_cov);
  EXPECT_EQ(totals.metrics.position_error_stddev, want.position_error_stddev);
  EXPECT_EQ(totals.metrics.num_samples, want.num_samples);
  EXPECT_EQ(totals.updates_sent, result->updates_sent);
  EXPECT_EQ(totals.updates_dropped, result->updates_dropped);
  EXPECT_EQ(totals.updates_applied, result->updates_applied);
  EXPECT_EQ(totals.final_z, result->final_z);
  ASSERT_TRUE(totals.final_plan.has_value());
  EXPECT_EQ(totals.final_plan->NumRegions(), result->final_plan_regions);
  EXPECT_EQ(totals.final_plan->MinDelta(), result->final_plan_min_delta);
  EXPECT_EQ(totals.final_plan->MaxDelta(), result->final_plan_max_delta);
  EXPECT_EQ(ep.quality.at("load_fraction"), result->measured_update_fraction);
  EXPECT_EQ(ep.counts.at("plan.builds"), ep.adaptations);
}

TEST(CityLoopTest, TracedEpisodeKeepsEveryCount) {
  CitySpec spec = CityPreset(2000, 7);
  spec.world.trace_frames = 240;
  std::map<std::string, double> setup;
  auto world = BuildCityWorld(spec.world, &setup);
  ASSERT_TRUE(world.ok());
  std::vector<Episode> episodes;
  episodes.push_back(RunCityEpisode(spec, *world, /*traced=*/false, ""));
  episodes.push_back(RunCityEpisode(spec, *world, /*traced=*/true, ""));
  std::vector<std::string> failures;
  CheckExactCounts(episodes, &failures);
  EXPECT_TRUE(failures.empty()) << failures.front();
  const Episode& traced = episodes[1];
  EXPECT_GT(traced.traced_ms.at("tracker.apply"), 0.0);
  EXPECT_GT(traced.traced_ms.at("core.gridreduce"), 0.0);
}

FleetSpec SmallServe() {
  FleetSpec spec = ServePreset(5000, 3);
  spec.warmup_ticks = 10;
  spec.measured_ticks = 20;
  spec.answer_check_stride = 1;
  spec.answer_check_queries = 1000;
  return spec;
}

TEST(ServeTest, AnswersEqualBruteForceOverBelievedPositions) {
  const Episode ep = RunFleetEpisode(SmallServe(), /*traced=*/false, "");
  EXPECT_TRUE(ep.failures.empty()) << ep.failures.front();
  EXPECT_EQ(ep.failed, 0);
  EXPECT_GT(ep.counts.at("cq.answer_hits"), 0);
  EXPECT_EQ(ep.answer_us.size(), 20u * 50u);
}

FleetSpec SmallMetro(int32_t threads) {
  FleetSpec spec = MetroPreset(40000, 5);
  spec.threads = threads;
  spec.alpha = 256;
  spec.warmup_ticks = 10;
  spec.measured_ticks = 30;
  return spec;
}

TEST(MetroTest, StateHashIsIdenticalAtOneAndTwoThreads) {
  std::vector<Episode> episodes;
  episodes.push_back(RunFleetEpisode(SmallMetro(1), /*traced=*/false, ""));
  episodes.push_back(RunFleetEpisode(SmallMetro(2), /*traced=*/true, ""));
  for (const Episode& ep : episodes) {
    ASSERT_TRUE(ep.failures.empty()) << ep.failures.front();
  }
  std::vector<std::string> failures;
  CheckExactCounts(episodes, &failures);
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_EQ(episodes[0].counts.at("state_hash"),
            episodes[1].counts.at("state_hash"));
  EXPECT_GT(episodes[0].counts.at("cluster.nodes_migrated"), 0);
}

TEST(MetroTest, ScheduledThrottleLeavesOneUnderOverload) {
  const Episode ep = RunFleetEpisode(SmallMetro(2), /*traced=*/false, "");
  ASSERT_TRUE(ep.failures.empty()) << ep.failures.front();
  EXPECT_GT(ep.counts.at("ingest.dropped"), 0);
  EXPECT_LT(ep.quality.at("min_z"), 1.0);
  EXPECT_GT(ep.quality.at("final_z"), 0.0);
  // Every new plan was encoded for the stations and decoded back equal.
  EXPECT_GT(ep.counts.at("plan.bytes"), 0);
  EXPECT_EQ(ep.counts.at("plan.builds"), ep.adaptations);
}

TEST(FleetTest, StepIsIndependentOfChunking) {
  FleetConfig config;
  config.num_nodes = 20000;
  config.world_side = 10000.0;
  auto serial = SyntheticFleet::Create(config);
  auto pooled = SyntheticFleet::Create(config);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  lira::ThreadPool pool(3);
  for (int tick = 0; tick < 50; ++tick) {
    serial->Step(1.0, nullptr);
    pooled->Step(1.0, &pool);
  }
  for (int32_t id = 0; id < config.num_nodes; ++id) {
    ASSERT_EQ(serial->x()[id], pooled->x()[id]);
    ASSERT_EQ(serial->vy()[id], pooled->vy()[id]);
    ASSERT_TRUE(serial->world().Contains({serial->x()[id], serial->y()[id]}));
  }
}

TEST(LedgerTest, FoldSpansAttributesEveryNanosecond) {
  lira::telemetry::TraceRecorder recorder(3);
  auto* coord = recorder.lane(0);
  // Receive [0, 100]: coordinator span [0, 40], shards [40, 90] and
  // [40, 70] in parallel, a 10 ns gap at the end.
  coord->Record("ingest.route", 1, -1, 0.0, 0, 40);
  recorder.lane(1)->Record("ingest.receive", 1, 0, 0.0, 40, 50);
  recorder.lane(2)->Record("ingest.receive", 1, 1, 0.0, 40, 30);
  // Tick [200, 400]: plan_build [200, 380] containing a nested
  // query-rebuild span [210, 230]; the policy phases took 100 ns.
  coord->Record("optimizer.plan_build", 2, -1, 0.0, 200, 180);
  coord->Record("stats.query_rebuild", 2, -1, 0.0, 210, 20);
  TickWindow window{0, 100, 200, 400, 0, 2};
  const std::vector<PhaseSink::Phase> phases = {{"core.quad_build", 60e-6},
                                                {"core.greedy", 40e-6}};
  const auto ms = FoldSpans(recorder, {window}, phases);
  EXPECT_DOUBLE_EQ(ms.at("ingest.receive"), 90e-6);
  EXPECT_DOUBLE_EQ(ms.at("stats.query_rebuild"), 20e-6);
  EXPECT_DOUBLE_EQ(ms.at("core.quad_build"), 60e-6);
  EXPECT_DOUBLE_EQ(ms.at("core.greedy"), 40e-6);
  EXPECT_DOUBLE_EQ(ms.at("optimizer.plan_finish"), 60e-6);
  EXPECT_DOUBLE_EQ(ms.at("tick.unattributed"), 30e-6);
  double total = 0.0;
  for (const auto& [layer, value] : ms) {
    total += value;
  }
  EXPECT_DOUBLE_EQ(total, 300e-6);
}

TEST(LedgerTest, ExactCountGateRejectsAnyDifference) {
  std::vector<Episode> episodes(2);
  episodes[0].counts["tracker.applied"] = 10;
  episodes[1].counts["tracker.applied"] = 10;
  episodes[0].quality["drop_frac"] = 0.25;
  episodes[1].quality["drop_frac"] = 0.25;
  std::vector<std::string> failures;
  CheckExactCounts(episodes, &failures);
  EXPECT_TRUE(failures.empty());
  episodes[1].counts["tracker.applied"] = 11;
  CheckExactCounts(episodes, &failures);
  ASSERT_EQ(failures.size(), 1u);
  episodes[1].counts["tracker.applied"] = 10;
  episodes[1].quality["drop_frac"] = 0.25000000000000006;
  failures.clear();
  CheckExactCounts(episodes, &failures);
  EXPECT_EQ(failures.size(), 1u);
}

TEST(LedgerTest, QuantileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace tickbench
