#include "lira/mobility/trip_model.h"

#include <vector>

#include <gtest/gtest.h>

#include "lira/mobility/trace.h"
#include "lira/roadnet/map_generator.h"
#include "lira/roadnet/shortest_path.h"
#include "lira/sim/experiment.h"
#include "trace_bytes.h"

namespace lira {
namespace {

class TripModelTest : public ::testing::Test {
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

TEST_F(TripModelTest, CreateAssignsInitialRoutes) {
  TripModelConfig config;
  config.num_vehicles = 100;
  auto model = TripTrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->NumVehicles(), 100);
  EXPECT_EQ(model->trips_completed(), 0);
}

TEST_F(TripModelTest, Validation) {
  TripModelConfig config;
  config.num_vehicles = 0;
  EXPECT_FALSE(TripTrafficModel::Create(map_.network, config).ok());
  RoadNetwork empty;
  config.num_vehicles = 5;
  EXPECT_FALSE(TripTrafficModel::Create(empty, config).ok());
}

TEST_F(TripModelTest, VehiclesMoveAndCompleteTrips) {
  TripModelConfig config;
  config.num_vehicles = 60;
  auto model = TripTrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  const auto before = model->SampleAll();
  for (int t = 0; t < 600; ++t) {
    model->Tick(1.0);
  }
  const auto after = model->SampleAll();
  int moved = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (Distance(before[i].position, after[i].position) > 100.0) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 40);
  // 10 minutes on a 6 km map: most vehicles have finished at least one trip.
  EXPECT_GT(model->trips_completed(), 30);
}

TEST_F(TripModelTest, Deterministic) {
  TripModelConfig config;
  config.num_vehicles = 30;
  auto a = TripTrafficModel::Create(map_.network, config);
  auto b = TripTrafficModel::Create(map_.network, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int t = 0; t < 120; ++t) {
    a->Tick(1.0);
    b->Tick(1.0);
  }
  for (NodeId id = 0; id < 30; ++id) {
    EXPECT_EQ(a->Sample(id).position, b->Sample(id).position);
  }
}

TEST_F(TripModelTest, RecordableAsTrace) {
  TripModelConfig config;
  config.num_vehicles = 40;
  auto model = TripTrafficModel::Create(map_.network, config);
  ASSERT_TRUE(model.ok());
  auto trace = Trace::Record(*model, 60, 1.0);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->num_frames(), 60);
  EXPECT_EQ(trace->num_nodes(), 40);
  EXPECT_GT(trace->MeanSpeed(30), 1.0);
}

TEST_F(TripModelTest, RecordedTraceBytesArePinned) {
  // The default world's map and seed mapping (seed 42) with 1000 routed
  // vehicles: every byte of 300 frames, and the trips they complete.
  auto map = GenerateMap(DefaultWorldConfig(3000).map);
  ASSERT_TRUE(map.ok());
  TripModelConfig config;
  config.num_vehicles = 1000;
  config.seed = 42 * 2654435761ULL + 1;
  auto model = TripTrafficModel::Create(map->network, config);
  ASSERT_TRUE(model.ok());
  auto trace = Trace::Record(*model, 300, 1.0);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(TraceBytesHash(*trace), 0x8601747ffa065d0eULL);
  EXPECT_EQ(model->trips_completed(), 243);
}

TEST_F(TripModelTest, VehicleFollowsAssignedRoute) {
  // Unit-level check of the fleet's route following on a simple chain.
  RoadNetwork net;
  for (int i = 0; i < 5; ++i) {
    net.AddIntersection({i * 100.0, 0.0});
  }
  // A fork at node 1 that a random walk could take.
  const IntersectionId fork = net.AddIntersection({100.0, 500.0});
  std::vector<SegmentId> chain;
  for (int i = 0; i < 4; ++i) {
    auto seg = net.AddSegment(i, i + 1, RoadClass::kArterial);
    ASSERT_TRUE(seg.ok());
    chain.push_back(*seg);
  }
  ASSERT_TRUE(net.AddSegment(1, fork, RoadClass::kCollector, 0.0, 100.0).ok());

  VehicleDynamics calm;
  calm.speed_noise = 0.0;
  calm.retarget_rate = 0.0;
  VehicleFleet fleet(net, calm);
  const int32_t vehicle = fleet.Add(chain[0], 0, 0.0, Rng(3));
  RouteCursor route{{chain[1], chain[2], chain[3]}};
  for (int t = 0; t < 100 && fleet.segment(vehicle) != chain[3]; ++t) {
    fleet.Advance(vehicle, 1.0, &route);
    // Never diverts to the fork.
    EXPECT_LT(fleet.position(vehicle).y, 1.0);
  }
  EXPECT_EQ(fleet.segment(vehicle), chain[3]);
  EXPECT_EQ(route.Remaining(), 0u);
}

TEST_F(TripModelTest, StaleRouteFallsBackToRandomWalk) {
  RoadNetwork net;
  net.AddIntersection({0.0, 0.0});
  net.AddIntersection({100.0, 0.0});
  net.AddIntersection({200.0, 0.0});
  net.AddIntersection({0.0, 500.0});
  net.AddIntersection({100.0, 500.0});
  auto s0 = net.AddSegment(0, 1, RoadClass::kArterial);
  auto s1 = net.AddSegment(1, 2, RoadClass::kArterial);
  auto far = net.AddSegment(3, 4, RoadClass::kArterial);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(far.ok());
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t vehicle = fleet.Add(*s0, 0, 0.0, Rng(4));
  // A route whose first segment is not incident to the junction reached.
  RouteCursor route{{*far}};
  for (int t = 0; t < 60; ++t) {
    // Must not crash; falls back to random walk.
    fleet.Advance(vehicle, 1.0, &route);
  }
  SUCCEED();
}

}  // namespace
}  // namespace lira
