#include "lira/mobility/traffic_model.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "lira/mobility/trace.h"
#include "lira/roadnet/map_generator.h"
#include "lira/sim/experiment.h"
#include "trace_bytes.h"

namespace lira {
namespace {

class TrafficModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MapGeneratorConfig config;
    config.world_side = 6000.0;
    config.arterial_cells = 4;
    config.num_towns = 2;
    auto map = GenerateMap(config);
    ASSERT_TRUE(map.ok());
    map_ = *std::move(map);
  }

  GeneratedMap map_;
};

TEST_F(TrafficModelTest, CreatePlacesAllVehicles) {
  TrafficModelConfig config;
  config.num_vehicles = 300;
  auto model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->NumVehicles(), 300);
  EXPECT_DOUBLE_EQ(model->CurrentTime(), 0.0);
  for (NodeId id = 0; id < model->NumVehicles(); ++id) {
    const PositionSample s = model->Sample(id);
    EXPECT_EQ(s.node_id, id);
    EXPECT_TRUE(map_.world.Contains(map_.world.Clamp(s.position)));
  }
}

TEST_F(TrafficModelTest, RejectsBadConfigs) {
  TrafficModelConfig config;
  config.num_vehicles = 0;
  EXPECT_FALSE(TrafficModel::Create(map_.network, config).ok());
  RoadNetwork empty;
  config.num_vehicles = 10;
  EXPECT_FALSE(TrafficModel::Create(empty, config).ok());
}

TEST_F(TrafficModelTest, TickAdvancesClockAndVehicles) {
  TrafficModelConfig config;
  config.num_vehicles = 100;
  auto model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  const auto before = model->SampleAll();
  model->Tick(1.0);
  EXPECT_DOUBLE_EQ(model->CurrentTime(), 1.0);
  const auto after = model->SampleAll();
  int moved = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (Distance(before[i].position, after[i].position) > 0.1) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 90);  // essentially everyone is driving
}

TEST_F(TrafficModelTest, DeterministicAcrossInstances) {
  TrafficModelConfig config;
  config.num_vehicles = 50;
  auto a = TrafficModel::Create(map_.network, config);
  auto b = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int t = 0; t < 50; ++t) {
    a->Tick(1.0);
    b->Tick(1.0);
  }
  for (NodeId id = 0; id < 50; ++id) {
    EXPECT_EQ(a->Sample(id).position, b->Sample(id).position);
  }
}

TEST_F(TrafficModelTest, DensityConcentratesInTowns) {
  // With volume-weighted placement, town areas should hold far more than
  // their area share of the vehicles.
  TrafficModelConfig config;
  config.num_vehicles = 3000;
  auto model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  double town_area = 0.0;
  for (const Rect& town : map_.towns) {
    town_area += town.Area();
  }
  ASSERT_GT(town_area, 0.0);
  int in_towns = 0;
  for (const PositionSample& s : model->SampleAll()) {
    for (const Rect& town : map_.towns) {
      if (town.Contains(s.position)) {
        ++in_towns;
        break;
      }
    }
  }
  const double area_share = town_area / map_.world.Area();
  const double vehicle_share =
      static_cast<double>(in_towns) / config.num_vehicles;
  EXPECT_GT(vehicle_share, 1.5 * area_share);
}

TEST_F(TrafficModelTest, TraceRecordsEveryFrame) {
  TrafficModelConfig config;
  config.num_vehicles = 40;
  auto model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  auto trace = Trace::Record(*model, /*num_frames=*/30, /*dt=*/0.5);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->num_frames(), 30);
  EXPECT_EQ(trace->num_nodes(), 40);
  EXPECT_DOUBLE_EQ(trace->dt(), 0.5);
  EXPECT_DOUBLE_EQ(trace->TimeOf(0), 0.5);
  EXPECT_DOUBLE_EQ(trace->TimeOf(29), 15.0);
  EXPECT_DOUBLE_EQ(model->CurrentTime(), 15.0);
}

TEST_F(TrafficModelTest, TraceMatchesLiveModel) {
  TrafficModelConfig config;
  config.num_vehicles = 25;
  auto recorded_model = TrafficModel::Create(map_.network, config);
  auto live_model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(recorded_model.ok());
  ASSERT_TRUE(live_model.ok());
  auto trace = Trace::Record(*recorded_model, 20, 1.0);
  ASSERT_TRUE(trace.ok());
  for (int f = 0; f < 20; ++f) {
    live_model->Tick(1.0);
    for (NodeId id = 0; id < 25; ++id) {
      const PositionSample s = live_model->Sample(id);
      // Trace stores floats; compare with float tolerance.
      EXPECT_NEAR(trace->Position(f, id).x, s.position.x, 1e-2);
      EXPECT_NEAR(trace->Position(f, id).y, s.position.y, 1e-2);
      EXPECT_NEAR(trace->Velocity(f, id).x, s.velocity.x, 1e-3);
    }
  }
}

TEST_F(TrafficModelTest, TraceSpeedHelpers) {
  TrafficModelConfig config;
  config.num_vehicles = 60;
  auto model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  auto trace = Trace::Record(*model, 10, 1.0);
  ASSERT_TRUE(trace.ok());
  const double mean = trace->MeanSpeed(5);
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 30.0);
  const PositionSample s = trace->Sample(5, 3);
  EXPECT_EQ(s.node_id, 3);
  EXPECT_DOUBLE_EQ(s.time, trace->TimeOf(5));
  EXPECT_NEAR(trace->Speed(5, 3), Norm(s.velocity), 1e-9);
}

TEST_F(TrafficModelTest, TraceRejectsBadArguments) {
  TrafficModelConfig config;
  config.num_vehicles = 5;
  auto model = TrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(Trace::Record(*model, 0, 1.0).ok());
  EXPECT_FALSE(Trace::Record(*model, 10, 0.0).ok());
  EXPECT_FALSE(Trace::Record(*model, 3, std::nan("")).ok());
  EXPECT_FALSE(
      Trace::Record(*model, 3, std::numeric_limits<double>::infinity()).ok());
  EXPECT_DOUBLE_EQ(model->CurrentTime(), 0.0);  // rejected before any tick
}

TEST_F(TrafficModelTest, RecordedTraceBytesArePinned) {
  // The default world's recipe (BuildWorld's seed mapping, seed 42): every
  // byte of all 600 frames, so any change to the motion law, its RNG draw
  // order or the sign of a zero shows here.
  auto map = GenerateMap(DefaultWorldConfig(3000).map);
  ASSERT_TRUE(map.ok());
  TrafficModelConfig config;
  config.num_vehicles = 3000;
  config.seed = 42 * 2654435761ULL + 1;
  auto model = TrafficModel::Create(map->network, config);
  ASSERT_TRUE(model.ok());
  auto trace = Trace::Record(*model, 600, 1.0);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(TraceBytesHash(*trace), 0x2cd22f6eb493d119ULL);
}

}  // namespace
}  // namespace lira
