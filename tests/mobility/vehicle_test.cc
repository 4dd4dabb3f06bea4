#include "lira/mobility/vehicle.h"

#include <cmath>

#include <gtest/gtest.h>

#include "lira/roadnet/map_generator.h"

namespace lira {
namespace {

RoadNetwork MakeSquare() {
  RoadNetwork net;
  net.AddIntersection({0.0, 0.0});
  net.AddIntersection({1000.0, 0.0});
  net.AddIntersection({1000.0, 1000.0});
  net.AddIntersection({0.0, 1000.0});
  EXPECT_TRUE(net.AddSegment(0, 1, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(1, 2, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(2, 3, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(3, 0, RoadClass::kArterial).ok());
  return net;
}

TEST(VehicleTest, StartsWherePlaced) {
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(/*segment=*/0, /*origin=*/0, /*offset=*/250.0,
                              Rng(1));
  const Point p = fleet.position(v);
  EXPECT_NEAR(p.x, 250.0, 1e-9);
  EXPECT_NEAR(p.y, 0.0, 1e-9);
}

TEST(VehicleTest, OffsetMeasuredFromChosenOrigin) {
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(/*segment=*/0, /*origin=*/1, /*offset=*/250.0,
                              Rng(1));
  EXPECT_NEAR(fleet.position(v).x, 750.0, 1e-9);
}

TEST(VehicleTest, SpeedStaysWithinDynamicBounds) {
  RoadNetwork net = MakeSquare();
  VehicleDynamics dyn;
  VehicleFleet fleet(net, dyn);
  const int32_t v = fleet.Add(0, 0, 0.0, Rng(2));
  for (int i = 0; i < 2000; ++i) {
    fleet.Advance(v, 1.0);
    const double limit = net.Segment(fleet.segment(v)).speed_limit;
    EXPECT_GE(fleet.speed(v), dyn.min_fraction * limit - 1e-9);
    EXPECT_LE(fleet.speed(v), dyn.max_fraction * limit + 1e-9);
  }
}

TEST(VehicleTest, StaysOnTheRoadGraph) {
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(0, 0, 0.0, Rng(3));
  for (int i = 0; i < 2000; ++i) {
    fleet.Advance(v, 1.0);
    const Point p = fleet.position(v);
    // On the square ring every point has x or y equal to 0 or 1000.
    const bool on_edge =
        std::abs(p.x) < 1e-6 || std::abs(p.x - 1000.0) < 1e-6 ||
        std::abs(p.y) < 1e-6 || std::abs(p.y - 1000.0) < 1e-6;
    EXPECT_TRUE(on_edge) << "off-road at " << p.x << "," << p.y;
  }
}

TEST(VehicleTest, MovementMatchesSpeedWithinTick) {
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(0, 0, 100.0, Rng(4));
  for (int i = 0; i < 200; ++i) {
    const Point before = fleet.position(v);
    fleet.Advance(v, 1.0);
    const Point after = fleet.position(v);
    // Displacement cannot exceed the post-update speed times dt by much
    // (path is piecewise straight; corners shorten the Euclidean step).
    EXPECT_LE(Distance(before, after),
              fleet.speed(v) * 1.0 + 1e-6 +
                  0.5 * fleet.speed(v) /* speed change */);
  }
}

TEST(VehicleTest, VelocityIsTangentToSegment) {
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(0, 0, 10.0, Rng(5));
  fleet.Advance(v, 1.0);
  const Vec2 vel = fleet.velocity(v);
  EXPECT_NEAR(Norm(vel), fleet.speed(v), 1e-9);
}

TEST(VehicleTest, ReverseDirectionKeepsPositiveZero) {
  // Driving segment 0 (along +x) from its `to` end: the velocity's y
  // component is +0.0, as (a - b) / |a - b| gives it. Negating the forward
  // direction would give -0.0, which equals +0.0 but changes trace bytes.
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(0, /*origin=*/1, 500.0, Rng(9));
  EXPECT_LT(fleet.velocity(v).x, 0.0);
  EXPECT_EQ(fleet.velocity(v).y, 0.0);
  EXPECT_FALSE(std::signbit(fleet.velocity(v).y));
}

TEST(VehicleTest, TurnsAroundAtDeadEnd) {
  RoadNetwork net;
  net.AddIntersection({0.0, 0.0});
  net.AddIntersection({100.0, 0.0});
  ASSERT_TRUE(net.AddSegment(0, 1, RoadClass::kCollector).ok());
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t v = fleet.Add(0, 0, 90.0, Rng(6));
  for (int i = 0; i < 300; ++i) {
    fleet.Advance(v, 1.0);
    const Point p = fleet.position(v);
    EXPECT_GE(p.x, -1e-9);
    EXPECT_LE(p.x, 100.0 + 1e-9);
  }
}

TEST(VehicleTest, DeterministicGivenSameRngStream) {
  // Two vehicles of one fleet on equal streams move in lockstep.
  RoadNetwork net = MakeSquare();
  VehicleFleet fleet(net, VehicleDynamics{});
  const int32_t a = fleet.Add(0, 0, 10.0, Rng(7));
  const int32_t b = fleet.Add(0, 0, 10.0, Rng(7));
  for (int i = 0; i < 500; ++i) {
    fleet.Advance(a, 1.0);
    fleet.Advance(b, 1.0);
    EXPECT_EQ(fleet.position(a), fleet.position(b));
    EXPECT_EQ(fleet.speed(a), fleet.speed(b));
  }
}

TEST(VehicleTest, ExploresNetworkOverTime) {
  // On a generated map with towns, a random-walk vehicle should visit many
  // distinct segments.
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  VehicleFleet fleet(map->network, VehicleDynamics{});
  const int32_t v =
      fleet.Add(0, map->network.Segment(0).from, 0.0, Rng(8));
  int changes = 0;
  SegmentId last = fleet.segment(v);
  for (int i = 0; i < 3000; ++i) {
    fleet.Advance(v, 1.0);
    if (fleet.segment(v) != last) {
      ++changes;
      last = fleet.segment(v);
    }
  }
  EXPECT_GT(changes, 10);
}

}  // namespace
}  // namespace lira
