#include "lira/sim/simulation.h"

#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "lira/sim/experiment.h"
#include "lira/telemetry/trace.h"

namespace lira {
namespace {

// The world is expensive enough to share across all tests in this file.
class SimulationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config = DefaultWorldConfig(/*num_nodes=*/1000);
    config.trace_frames = 360;
    auto world = BuildWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = new World(*std::move(world));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static SimulationConfig FastConfig() {
    SimulationConfig config = DefaultSimulationConfig();
    config.warmup_frames = 120;
    config.alpha = 64;
    return config;
  }

  static LiraConfig SmallLira() {
    LiraConfig config = DefaultLiraConfig();
    config.l = 100;
    return config;
  }

  static World* world_;
};

World* SimulationTest::world_ = nullptr;

TEST_F(SimulationTest, Validation) {
  UniformDeltaPolicy policy;
  SimulationConfig config = FastConfig();
  config.warmup_frames = -1;
  EXPECT_FALSE(RunSimulation(*world_, policy, config).ok());
  config = FastConfig();
  config.warmup_frames = 10000;
  EXPECT_FALSE(RunSimulation(*world_, policy, config).ok());
  config = FastConfig();
  config.sample_every = 0;
  EXPECT_FALSE(RunSimulation(*world_, policy, config).ok());
}

TEST_F(SimulationTest, NoSheddingAtFullBudgetIsNearPerfect) {
  UniformDeltaPolicy policy;
  SimulationConfig config = FastConfig();
  config.z = 1.0;
  auto result = RunSimulation(*world_, policy, config);
  ASSERT_TRUE(result.ok());
  // Delta stays at delta_min = 5 m; containment errors should be tiny and
  // position errors bounded by ~5 m.
  EXPECT_LT(result->metrics.mean_containment_error, 0.05);
  EXPECT_LT(result->metrics.mean_position_error, 5.0);
  // Only the cold-start burst (every node reporting in the first tick) may
  // overflow the queue; steady state drops nothing.
  EXPECT_LE(result->updates_dropped, world_->num_nodes());
}

TEST_F(SimulationTest, MeasuredUpdateFractionTracksBudget) {
  UniformDeltaPolicy policy;
  for (double z : {0.75, 0.5}) {
    SimulationConfig config = FastConfig();
    config.z = z;
    auto result = RunSimulation(*world_, policy, config);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->measured_update_fraction, z, 0.2) << "z=" << z;
  }
}

TEST_F(SimulationTest, PaperErrorOrderingAtHalfBudget) {
  SimulationConfig config = FastConfig();
  config.z = 0.5;
  const RandomDropPolicy random_drop;
  const UniformDeltaPolicy uniform;
  const LiraGridPolicy lira_grid(SmallLira());
  const LiraPolicy lira(SmallLira());

  auto r_drop = RunSimulation(*world_, random_drop, config);
  auto r_uniform = RunSimulation(*world_, uniform, config);
  auto r_grid = RunSimulation(*world_, lira_grid, config);
  auto r_lira = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(r_drop.ok());
  ASSERT_TRUE(r_uniform.ok());
  ASSERT_TRUE(r_grid.ok());
  ASSERT_TRUE(r_lira.ok());

  // The paper's headline ordering (Figures 4-5): Random Drop is by far the
  // worst; LIRA is the best; Lira-Grid sits between Uniform and LIRA.
  EXPECT_GT(r_drop->metrics.mean_position_error,
            2.0 * r_uniform->metrics.mean_position_error);
  EXPECT_GT(r_uniform->metrics.mean_position_error,
            r_lira->metrics.mean_position_error);
  EXPECT_GT(r_uniform->metrics.mean_containment_error,
            r_lira->metrics.mean_containment_error);
  EXPECT_LE(r_lira->metrics.mean_containment_error,
            r_grid->metrics.mean_containment_error * 1.25 + 1e-6);

  // Random Drop actually dropped a large share of updates at the queue.
  EXPECT_GT(r_drop->updates_dropped, r_drop->updates_sent / 5);
  // Source-actuated policies shed at the encoder instead.
  EXPECT_LT(r_lira->updates_sent, r_drop->updates_sent);
}

TEST_F(SimulationTest, LiraPlanUsesRegionsAndBoundsDeltas) {
  SimulationConfig config = FastConfig();
  config.z = 0.5;
  const LiraPolicy lira(SmallLira());
  auto result = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->final_plan_regions, 100);
  EXPECT_GE(result->final_plan_min_delta, 5.0);
  EXPECT_LE(result->final_plan_max_delta, 100.0);
  EXPECT_LE(result->final_plan_max_delta - result->final_plan_min_delta,
            50.0 + 1e-6);  // fairness threshold
  EXPECT_GT(result->plan_builds, 5);
  EXPECT_GT(result->mean_plan_build_seconds, 0.0);
}

TEST_F(SimulationTest, AutoThrottleConvergesNearCapacityRatio) {
  SimulationConfig config = FastConfig();
  config.auto_throttle = true;
  // Server can only handle ~60% of the full update load.
  config.service_rate_override = 0.6 * world_->full_update_rate;
  const UniformDeltaPolicy uniform;
  auto result = RunSimulation(*world_, uniform, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_z, 0.35);
  EXPECT_LT(result->final_z, 0.95);
}

TEST_F(SimulationTest, SmallerZMeansLargerError) {
  const LiraPolicy lira(SmallLira());
  std::optional<double> previous;
  for (double z : {0.9, 0.5, 0.3}) {
    SimulationConfig config = FastConfig();
    config.z = z;
    auto result = RunSimulation(*world_, lira, config);
    ASSERT_TRUE(result.ok());
    if (previous.has_value()) {
      EXPECT_GE(result->metrics.mean_position_error, *previous * 0.8)
          << "z=" << z;
    }
    previous = result->metrics.mean_position_error;
  }
}

TEST_F(SimulationTest, DeterministicRuns) {
  const LiraPolicy lira(SmallLira());
  SimulationConfig config = FastConfig();
  auto a = RunSimulation(*world_, lira, config);
  auto b = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.mean_containment_error,
                   b->metrics.mean_containment_error);
  EXPECT_EQ(a->updates_sent, b->updates_sent);
  EXPECT_EQ(a->updates_dropped, b->updates_dropped);
}

// The parallel engine's determinism contract: every thread count produces a
// result bitwise identical to the serial run (DESIGN.md §7).
TEST_F(SimulationTest, IdenticalResultsForAnyThreadCount) {
  const LiraPolicy lira(SmallLira());
  SimulationConfig config = FastConfig();
  config.z = 0.5;
  config.auto_throttle = true;
  config.service_rate_override = 0.6 * world_->full_update_rate;

  config.threads = 1;
  auto serial = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(serial.ok());

  for (int32_t threads : {2, 8}) {
    config.threads = threads;
    auto parallel = RunSimulation(*world_, lira, config);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(parallel->updates_sent, serial->updates_sent)
        << "threads=" << threads;
    EXPECT_EQ(parallel->updates_dropped, serial->updates_dropped)
        << "threads=" << threads;
    EXPECT_EQ(parallel->updates_applied, serial->updates_applied)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_z, serial->final_z) << "threads=" << threads;
    EXPECT_EQ(parallel->metrics.mean_containment_error,
              serial->metrics.mean_containment_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel->metrics.mean_position_error,
              serial->metrics.mean_position_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel->metrics.containment_error_stddev,
              serial->metrics.containment_error_stddev)
        << "threads=" << threads;
    EXPECT_EQ(parallel->metrics.containment_error_cov,
              serial->metrics.containment_error_cov)
        << "threads=" << threads;
    EXPECT_EQ(parallel->measured_update_fraction,
              serial->measured_update_fraction)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_plan_regions, serial->final_plan_regions)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_plan_min_delta, serial->final_plan_min_delta)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_plan_max_delta, serial->final_plan_max_delta)
        << "threads=" << threads;
  }
}

// The incremental engine's equivalence contract: delta-maintained accuracy
// sampling and server statistics produce a SimulationResult bitwise
// identical to the recompute-everything paths, at any thread count
// (DESIGN.md §8).
TEST_F(SimulationTest, IncrementalModeMatchesFullRescanBitwise) {
  const LiraPolicy lira(SmallLira());
  SimulationConfig config = FastConfig();
  config.z = 0.5;
  config.auto_throttle = true;
  config.service_rate_override = 0.6 * world_->full_update_rate;

  config.incremental = false;
  config.threads = 1;
  auto rescan = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(rescan.ok());

  for (int32_t threads : {1, 8}) {
    config.incremental = true;
    config.threads = threads;
    auto incremental = RunSimulation(*world_, lira, config);
    ASSERT_TRUE(incremental.ok()) << "threads=" << threads;
    EXPECT_EQ(incremental->updates_sent, rescan->updates_sent)
        << "threads=" << threads;
    EXPECT_EQ(incremental->updates_dropped, rescan->updates_dropped)
        << "threads=" << threads;
    EXPECT_EQ(incremental->updates_applied, rescan->updates_applied)
        << "threads=" << threads;
    EXPECT_EQ(incremental->final_z, rescan->final_z)
        << "threads=" << threads;
    EXPECT_EQ(incremental->metrics.mean_containment_error,
              rescan->metrics.mean_containment_error)
        << "threads=" << threads;
    EXPECT_EQ(incremental->metrics.mean_position_error,
              rescan->metrics.mean_position_error)
        << "threads=" << threads;
    EXPECT_EQ(incremental->metrics.containment_error_stddev,
              rescan->metrics.containment_error_stddev)
        << "threads=" << threads;
    EXPECT_EQ(incremental->metrics.containment_error_cov,
              rescan->metrics.containment_error_cov)
        << "threads=" << threads;
    EXPECT_EQ(incremental->final_plan_regions, rescan->final_plan_regions)
        << "threads=" << threads;
    EXPECT_EQ(incremental->final_plan_min_delta,
              rescan->final_plan_min_delta)
        << "threads=" << threads;
    EXPECT_EQ(incremental->final_plan_max_delta,
              rescan->final_plan_max_delta)
        << "threads=" << threads;
  }
}

TEST_F(SimulationTest, RejectsNegativeThreads) {
  UniformDeltaPolicy policy;
  SimulationConfig config = FastConfig();
  config.threads = -1;
  EXPECT_FALSE(RunSimulation(*world_, policy, config).ok());
}

TEST_F(SimulationTest, RejectsNegativeShards) {
  UniformDeltaPolicy policy;
  SimulationConfig config = FastConfig();
  config.shards = -1;
  EXPECT_FALSE(RunSimulation(*world_, policy, config).ok());
}

// The sharded server's end-to-end equivalence contract (DESIGN.md §9): a
// one-shard ServerCluster is the staged pipeline wrapped in the cluster
// coordinator, and the whole simulation must come out bitwise identical to
// the monolithic CqServer path. mean_plan_build_seconds is wall-clock and
// is the one field excluded from the comparison.
TEST_F(SimulationTest, SingleShardClusterMatchesMonolithicServerBitwise) {
  const LiraPolicy lira(SmallLira());
  SimulationConfig config = FastConfig();
  config.z = 0.5;
  config.auto_throttle = true;
  config.service_rate_override = 0.6 * world_->full_update_rate;

  config.shards = 0;
  auto mono = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(mono.ok());

  config.shards = 1;
  auto cluster = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(cluster->updates_sent, mono->updates_sent);
  EXPECT_EQ(cluster->updates_dropped, mono->updates_dropped);
  EXPECT_EQ(cluster->updates_applied, mono->updates_applied);
  EXPECT_EQ(cluster->final_z, mono->final_z);
  EXPECT_EQ(cluster->metrics.mean_containment_error,
            mono->metrics.mean_containment_error);
  EXPECT_EQ(cluster->metrics.mean_position_error,
            mono->metrics.mean_position_error);
  EXPECT_EQ(cluster->metrics.containment_error_stddev,
            mono->metrics.containment_error_stddev);
  EXPECT_EQ(cluster->metrics.containment_error_cov,
            mono->metrics.containment_error_cov);
  EXPECT_EQ(cluster->measured_update_fraction,
            mono->measured_update_fraction);
  EXPECT_EQ(cluster->final_plan_regions, mono->final_plan_regions);
  EXPECT_EQ(cluster->final_plan_min_delta, mono->final_plan_min_delta);
  EXPECT_EQ(cluster->final_plan_max_delta, mono->final_plan_max_delta);
  EXPECT_EQ(cluster->plan_builds, mono->plan_builds);
}

// shards == 0 runs one shard, which traces into lane 1: the recorder needs
// max(shards, 1) + 1 lanes, and a traced run records the shard's spans.
TEST_F(SimulationTest, TracedSingleServerRecordsShardSpans) {
  UniformDeltaPolicy policy;
  SimulationConfig config = FastConfig();
  config.shards = 0;
  telemetry::TraceRecorder too_few(1);
  config.trace = &too_few;
  EXPECT_FALSE(RunSimulation(*world_, policy, config).ok());

  telemetry::TraceRecorder recorder(2);
  config.trace = &recorder;
  ASSERT_TRUE(RunSimulation(*world_, policy, config).ok());
  int64_t service = 0;
  int64_t apply = 0;
  for (const telemetry::SpanRecord& span : recorder.MergedSpans()) {
    const std::string name = span.name;
    service += name == "ingest.service" ? 1 : 0;
    apply += name == "tracker.apply" ? 1 : 0;
  }
  EXPECT_EQ(service, world_->trace.num_frames());
  EXPECT_EQ(apply, world_->trace.num_frames());
}

// With S > 1 the run is a genuinely different (sharded) system, but it must
// still be bitwise reproducible at any worker-pool width.
TEST_F(SimulationTest, ShardedRunIsIndependentOfThreadCount) {
  const LiraPolicy lira(SmallLira());
  SimulationConfig config = FastConfig();
  config.z = 0.5;
  config.auto_throttle = true;
  config.service_rate_override = 0.6 * world_->full_update_rate;
  config.shards = 4;

  config.threads = 1;
  auto serial = RunSimulation(*world_, lira, config);
  ASSERT_TRUE(serial.ok());
  for (int32_t threads : {2, 8}) {
    config.threads = threads;
    auto parallel = RunSimulation(*world_, lira, config);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(parallel->updates_sent, serial->updates_sent)
        << "threads=" << threads;
    EXPECT_EQ(parallel->updates_dropped, serial->updates_dropped)
        << "threads=" << threads;
    EXPECT_EQ(parallel->updates_applied, serial->updates_applied)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_z, serial->final_z) << "threads=" << threads;
    EXPECT_EQ(parallel->metrics.mean_containment_error,
              serial->metrics.mean_containment_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel->metrics.mean_position_error,
              serial->metrics.mean_position_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_plan_regions, serial->final_plan_regions)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_plan_min_delta, serial->final_plan_min_delta)
        << "threads=" << threads;
    EXPECT_EQ(parallel->final_plan_max_delta, serial->final_plan_max_delta)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lira
