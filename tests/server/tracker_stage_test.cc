#include "lira/server/tracker_stage.h"

#include <gtest/gtest.h>

namespace lira {
namespace {

ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
  ModelUpdate u;
  u.node_id = id;
  u.model = LinearMotionModel{p, v, t};
  return u;
}

TEST(TrackerStageTest, CreateValidation) {
  EXPECT_TRUE(TrackerStage::Create(10, false).ok());
  EXPECT_TRUE(TrackerStage::Create(10, true).ok());
  EXPECT_FALSE(TrackerStage::Create(0, false).ok());
  EXPECT_FALSE(TrackerStage::Create(-3, false).ok());
  auto no_history = TrackerStage::Create(4, false);
  ASSERT_TRUE(no_history.ok());
  EXPECT_EQ(no_history->history(), nullptr);
}

TEST(TrackerStageTest, ApplyKeepsTrackerAndHistoryConsistent) {
  auto stage = TrackerStage::Create(10, true);
  ASSERT_TRUE(stage.ok());
  stage->Apply(UpdateFor(2, {100.0, 100.0}, {10.0, 0.0}, 0.0));
  stage->Apply(UpdateFor(5, {500.0, 500.0}, {0.0, 0.0}, 0.0));

  const auto p = stage->tracker().PredictAt(2, 2.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{120.0, 100.0}));

  ASSERT_NE(stage->history(), nullptr);
  const auto past = stage->history()->PositionAt(2, 1.0);
  ASSERT_TRUE(past.has_value());
  EXPECT_EQ(*past, (Point{110.0, 100.0}));
}

TEST(TrackerStageTest, ApplyReplacesModelAndHistoryKeepsEveryRecord) {
  auto stage = TrackerStage::Create(8, true);
  ASSERT_TRUE(stage.ok());
  stage->Apply(UpdateFor(3, {100.0, 100.0}, {0.0, 0.0}, 0.0));
  stage->Apply(UpdateFor(3, {300.0, 300.0}, {0.0, 0.0}, 2.0));

  // The tracker holds the latest model only...
  const auto now = stage->tracker().PredictAt(3, 2.0);
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(*now, (Point{300.0, 300.0}));
  // ...but the history keeps serving the record it already stored.
  ASSERT_NE(stage->history(), nullptr);
  const auto past = stage->history()->PositionAt(3, 1.0);
  ASSERT_TRUE(past.has_value());
  EXPECT_EQ(*past, (Point{100.0, 100.0}));
  EXPECT_EQ(stage->history()->RecordsFor(3), 2);
}

}  // namespace
}  // namespace lira
