// Failure injection: the server must degrade gracefully and recover from
// overload bursts, silent nodes, and workload pathologies.

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/check.h"
#include "lira/server/cq_server.h"
#include "lira/sim/experiment.h"
#include "lira/sim/world.h"
#include "lira/telemetry/flight_recorder.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    queries_.Add(Rect{200, 200, 700, 700});
  }

  CqServerConfig BaseConfig() {
    CqServerConfig config;
    config.num_nodes = 100;
    config.world = kWorld;
    config.alpha = 16;
    config.queue_capacity = 50;
    config.service_rate = 40.0;
    config.adaptation_period = 5.0;
    config.auto_throttle = true;
    return config;
  }

  ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
    return ModelUpdate{id, LinearMotionModel{p, v, t}};
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_;
  LiraPolicy policy_{LiraConfig{.l = 13, .locator_cells = 8}};
};

TEST_F(FailureInjectionTest, RecoversFromArrivalBurst) {
  auto server =
      CqServer::Create(BaseConfig(), &policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  // Burst: 10x capacity for 10 seconds.
  double t = 0.0;
  for (int s = 0; s < 10; ++s) {
    std::vector<ModelUpdate> burst;
    for (int k = 0; k < 400; ++k) {
      burst.push_back(UpdateFor(k % 100, {800.0, 800.0}, {1.0, 0.0}, t));
    }
    server->Receive(std::move(burst));
    ASSERT_TRUE(server->Tick(1.0).ok());
    t += 1.0;
  }
  EXPECT_GT(server->queue().total_dropped(), 0);
  const double z_under_burst = server->z();
  EXPECT_LT(z_under_burst, 0.5);
  // Calm traffic afterwards: the controller opens back up.
  for (int s = 0; s < 60; ++s) {
    server->Receive({UpdateFor(s % 100, {800.0, 800.0}, {1.0, 0.0}, t)});
    ASSERT_TRUE(server->Tick(1.0).ok());
    t += 1.0;
  }
  EXPECT_GT(server->z(), z_under_burst);
  EXPECT_DOUBLE_EQ(server->z(), 1.0);
  // Queue drained.
  EXPECT_EQ(server->queue().size(), 0u);
}

TEST_F(FailureInjectionTest, SilentNodesDoNotBreakAdaptation) {
  auto server =
      CqServer::Create(BaseConfig(), &policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  // Only a third of the fleet ever reports.
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 33; ++id) {
    batch.push_back(UpdateFor(id, {100.0 + id * 40.0, 500.0}, {2.0, 0.0},
                              0.0));
  }
  server->Receive(std::move(batch));
  for (int s = 0; s < 12; ++s) {
    ASSERT_TRUE(server->Tick(1.0).ok());
  }
  EXPECT_GT(server->plan_builds(), 0);
  EXPECT_NEAR(server->stats().TotalNodes(), 33.0, 1e-6);
  // Queries over silent space still answerable (empty result, no crash).
  auto result = server->AnswerRange(Rect{1200, 1200, 1500, 1500},
                                    server->time());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(FailureInjectionTest, NoUpdatesAtAllStillAdapts) {
  auto server =
      CqServer::Create(BaseConfig(), &policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  for (int s = 0; s < 12; ++s) {
    ASSERT_TRUE(server->Tick(1.0).ok());
  }
  // Zero arrivals: THROTLOOP relaxes to fully open; plan is benign.
  EXPECT_DOUBLE_EQ(server->z(), 1.0);
  EXPECT_GT(server->plan_builds(), 0);
  EXPECT_DOUBLE_EQ(server->plan().MinDelta(), 5.0);
}

TEST_F(FailureInjectionTest, DuplicateAndOutOfOrderUpdatesAreAbsorbed) {
  auto config = BaseConfig();
  config.record_history = true;
  auto server =
      CqServer::Create(config, &policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  // The same node reports three times in one tick, then an older-timestamp
  // message arrives late (network reordering).
  server->Receive({UpdateFor(0, {100, 100}, {1, 0}, 2.0),
                   UpdateFor(0, {101, 100}, {1, 0}, 2.5),
                   UpdateFor(0, {102, 100}, {1, 0}, 3.0),
                   UpdateFor(0, {50, 50}, {0, 0}, 1.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());
  // Tracker holds the newest model; the late stale report replaced nothing.
  ASSERT_TRUE(server->tracker().HasModel(0));
  // History kept all four, sorted.
  ASSERT_NE(server->history(), nullptr);
  EXPECT_EQ(server->history()->RecordsFor(0), 4);
  const auto early = server->history()->PositionAt(0, 1.5);
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(*early, (Point{50, 50}));
}

TEST_F(FailureInjectionTest, FlightRecorderLeavesPostmortemOfBurst) {
  telemetry::FlightRecorder flight(/*capacity=*/32, "burst-postmortem");
  auto config = BaseConfig();
  config.flight_recorder = &flight;
  auto server =
      CqServer::Create(config, &policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  // Same overload burst as RecoversFromArrivalBurst: the ring should end
  // up holding the ticks where the queue was shedding.
  double t = 0.0;
  for (int s = 0; s < 10; ++s) {
    std::vector<ModelUpdate> burst;
    for (int k = 0; k < 400; ++k) {
      burst.push_back(UpdateFor(k % 100, {800.0, 800.0}, {1.0, 0.0}, t));
    }
    server->Receive(std::move(burst));
    ASSERT_TRUE(server->Tick(1.0).ok());
    t += 1.0;
  }
  EXPECT_EQ(flight.total_recorded(), 10);
  const std::vector<telemetry::FlightSample> samples = flight.Snapshot();
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples.back().tick, 10);
  EXPECT_GT(samples.back().queue_dropped, 0);
  EXPECT_LT(samples.back().z, 0.5);
  // The postmortem dump is parseable-looking JSON naming the recorder.
  const std::string path =
      ::testing::TempDir() + "failure_injection_flight.json";
  ASSERT_TRUE(telemetry::FlightRecorder::DumpAllToFile(path).ok());
  std::ifstream in(path);
  std::stringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("burst-postmortem"), std::string::npos);
  EXPECT_NE(dump.str().find("\"queue_dropped\""), std::string::npos);
  std::remove(path.c_str());
}

using FailureInjectionDeathTest = FailureInjectionTest;

TEST_F(FailureInjectionDeathTest, CheckFailureWritesCrashDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "failure_injection_crash_dump.json";
  std::remove(path.c_str());
  // The child process runs the chaos workload with the crash hook armed and
  // then hits a LIRA_CHECK; the dump it writes survives the abort and is
  // inspected by the parent.
  ASSERT_DEATH(
      {
        telemetry::FlightRecorder flight(16, "crash-ring");
        telemetry::FlightRecorder::InstallCrashDump(path);
        auto config = BaseConfig();
        config.flight_recorder = &flight;
        auto server =
            CqServer::Create(config, &policy_, &*reduction_, &queries_);
        if (server.ok()) {
          server->Receive({UpdateFor(0, {800.0, 800.0}, {1.0, 0.0}, 0.0)});
          (void)server->Tick(1.0);
          LIRA_CHECK(false && "injected failure");
        }
      },
      "LIRA_CHECK failed");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash dump not written to " << path;
  std::stringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("\"recorders\""), std::string::npos);
  EXPECT_NE(dump.str().find("crash-ring"), std::string::npos);
  EXPECT_NE(dump.str().find("\"tick\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FailureInjectionTest, ExtremeWorkloadsDoNotStallSimulation) {
  // All queries stacked on one point, tiny world population.
  WorldConfig world_config = DefaultWorldConfig(/*num_nodes=*/200);
  world_config.trace_frames = 200;
  world_config.query_side_length = 250.0;
  world_config.query_node_ratio = 0.1;
  auto world = BuildWorld(world_config);
  ASSERT_TRUE(world.ok());
  SimulationConfig sim = DefaultSimulationConfig();
  sim.warmup_frames = 60;
  sim.alpha = 32;
  for (double z : {0.05, 0.99}) {
    sim.z = z;
    const LiraPolicy lira(LiraConfig{.l = 40});
    auto result = RunSimulation(*world, lira, sim);
    ASSERT_TRUE(result.ok()) << "z=" << z;
    EXPECT_GE(result->metrics.mean_containment_error, 0.0);
  }
}

}  // namespace
}  // namespace lira
