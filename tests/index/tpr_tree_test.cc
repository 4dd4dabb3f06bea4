#include "bench/tpr_tree.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"

namespace lira {
namespace {

LinearMotionModel Model(Point p, Vec2 v, double t0) {
  return LinearMotionModel{p, v, t0};
}

TEST(TpbrTest, ForModelIsDegenerateBox) {
  const Tpbr box = Tpbr::ForModel(Model({10, 20}, {1, -2}, 5.0));
  EXPECT_DOUBLE_EQ(box.t_ref, 5.0);
  EXPECT_DOUBLE_EQ(box.min_x, 10.0);
  EXPECT_DOUBLE_EQ(box.max_x, 10.0);
  const Rect at7 = box.AtTime(7.0);
  EXPECT_DOUBLE_EQ(at7.min_x, 12.0);
  EXPECT_DOUBLE_EQ(at7.min_y, 16.0);
}

TEST(TpbrTest, AtTimeClampsBeforeReference) {
  const Tpbr box = Tpbr::ForModel(Model({10, 20}, {1, 1}, 5.0));
  const Rect before = box.AtTime(0.0);
  EXPECT_DOUBLE_EQ(before.min_x, 10.0);  // clamped to the reference box
}

TEST(TpbrTest, UnionContainsBothForFutureTimes) {
  const Tpbr a = Tpbr::ForModel(Model({0, 0}, {2, 0}, 0.0));
  const Tpbr b = Tpbr::ForModel(Model({10, 10}, {-1, 3}, 2.0));
  const Tpbr u = Tpbr::Union(a, b);
  EXPECT_DOUBLE_EQ(u.t_ref, 2.0);
  for (double t : {2.0, 5.0, 20.0}) {
    const Rect ru = u.AtTime(t);
    for (const Tpbr& src : {a, b}) {
      const Rect rs = src.AtTime(t);
      EXPECT_GE(rs.min_x, ru.min_x - 1e-9);
      EXPECT_GE(rs.min_y, ru.min_y - 1e-9);
      EXPECT_LE(rs.max_x, ru.max_x + 1e-9);
      EXPECT_LE(rs.max_y, ru.max_y + 1e-9);
    }
  }
}

TEST(TprTreeTest, CreateValidation) {
  TprTreeOptions options;
  options.max_entries = 2;
  EXPECT_FALSE(TprTree::Create(options).ok());
  options = TprTreeOptions{};
  options.horizon = 0.0;
  EXPECT_FALSE(TprTree::Create(options).ok());
  EXPECT_TRUE(TprTree::Create().ok());
}

TEST(TprTreeTest, EmptyTree) {
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0);
  EXPECT_TRUE(tree->QueryAt(Rect{0, 0, 100, 100}, 0.0).empty());
  EXPECT_FALSE(tree->Remove(3));
  EXPECT_FALSE(tree->ModelOf(3).ok());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->Height(), 1);
}

TEST(TprTreeTest, SingleObjectLifecycle) {
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  tree->Update(7, Model({50, 50}, {1, 0}, 0.0));
  EXPECT_EQ(tree->size(), 1);
  EXPECT_TRUE(tree->Contains(7));
  auto hits = tree->QueryAt(Rect{40, 40, 60, 60}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7);
  // At t=20 the object has moved to x=70.
  EXPECT_TRUE(tree->QueryAt(Rect{40, 40, 60, 60}, 20.0).empty());
  EXPECT_EQ(tree->QueryAt(Rect{65, 40, 75, 60}, 20.0).size(), 1u);
  EXPECT_TRUE(tree->Remove(7));
  EXPECT_EQ(tree->size(), 0);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(TprTreeTest, UpdateReplacesModel) {
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  tree->Update(1, Model({10, 10}, {0, 0}, 0.0));
  tree->Update(1, Model({90, 90}, {0, 0}, 1.0));
  EXPECT_EQ(tree->size(), 1);
  EXPECT_TRUE(tree->QueryAt(Rect{0, 0, 20, 20}, 1.0).empty());
  EXPECT_EQ(tree->QueryAt(Rect{80, 80, 99, 99}, 1.0).size(), 1u);
  auto model = tree->ModelOf(1);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->origin.x, 90.0);
}

// Reference implementation for equivalence checks.
class BruteForce {
 public:
  void Update(NodeId id, const LinearMotionModel& model) {
    models_[id] = model;
  }
  void Remove(NodeId id) { models_.erase(id); }
  std::vector<NodeId> QueryAt(const Rect& range, double t) const {
    std::vector<NodeId> out;
    for (const auto& [id, model] : models_) {
      if (range.Contains(model.PredictAt(t))) {
        out.push_back(id);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  size_t size() const { return models_.size(); }
  bool Contains(NodeId id) const { return models_.contains(id); }

 private:
  std::unordered_map<NodeId, LinearMotionModel> models_;
};

TEST(TprTreeTest, MatchesBruteForceUnderChurn) {
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  BruteForce brute;
  Rng rng(31337);
  double now = 0.0;
  for (int step = 0; step < 3000; ++step) {
    now += rng.Uniform(0.0, 0.5);
    const auto id = static_cast<NodeId>(rng.UniformInt(300));
    const double action = rng.Uniform01();
    if (action < 0.75) {
      const LinearMotionModel model =
          Model({rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
                {rng.Uniform(-20.0, 20.0), rng.Uniform(-20.0, 20.0)}, now);
      tree->Update(id, model);
      brute.Update(id, model);
    } else {
      EXPECT_EQ(tree->Remove(id), brute.Contains(id));
      brute.Remove(id);
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "step " << step;
    }
    if (step % 10 == 0) {
      const double t = now + rng.Uniform(0.0, 60.0);
      const double side = rng.Uniform(50.0, 400.0);
      const Rect range = Rect::CenteredAt(
          {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)}, side);
      std::vector<NodeId> got = tree->QueryAt(range, t);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute.QueryAt(range, t)) << "step " << step;
    }
  }
  EXPECT_EQ(static_cast<size_t>(tree->size()), brute.size());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(TprTreeTest, GrowsAndShrinksHeight) {
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  Rng rng(5);
  for (NodeId id = 0; id < 500; ++id) {
    tree->Update(id, Model({rng.Uniform(0.0, 1000.0),
                            rng.Uniform(0.0, 1000.0)},
                           {rng.Uniform(-10.0, 10.0),
                            rng.Uniform(-10.0, 10.0)},
                           0.0));
  }
  EXPECT_GE(tree->Height(), 3);
  EXPECT_TRUE(tree->CheckInvariants().ok());
  for (NodeId id = 0; id < 500; ++id) {
    ASSERT_TRUE(tree->Remove(id)) << id;
  }
  EXPECT_EQ(tree->size(), 0);
  EXPECT_EQ(tree->Height(), 1);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(TprTreeTest, QueryFarInTheFutureStaysExact) {
  // TPBRs grow conservatively over time; the final exact check must keep
  // results correct even at long horizons.
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  BruteForce brute;
  Rng rng(77);
  for (NodeId id = 0; id < 200; ++id) {
    const LinearMotionModel model =
        Model({rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
              {rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)}, 0.0);
    tree->Update(id, model);
    brute.Update(id, model);
  }
  for (double t : {0.0, 10.0, 100.0, 1000.0}) {
    const Rect range{200.0, 200.0, 800.0, 800.0};
    std::vector<NodeId> got = tree->QueryAt(range, t);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute.QueryAt(range, t)) << "t=" << t;
  }
}

TEST(TprTreeTest, ManyObjectsOnePoint) {
  // Degenerate geometry: all objects at the same position and velocity.
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  for (NodeId id = 0; id < 100; ++id) {
    tree->Update(id, Model({500, 500}, {1, 1}, 0.0));
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->QueryAt(Rect{499, 499, 501, 501}, 0.0).size(), 100u);
  EXPECT_EQ(tree->QueryAt(Rect{509, 509, 511, 511}, 10.0).size(), 100u);
  EXPECT_TRUE(tree->QueryAt(Rect{499, 499, 501, 501}, 10.0).empty());
}

TEST(TprTreeTest, FindsNodesExactlyOnQueryMinEdge) {
  // Regression: stationary nodes on a road at x = 0 form degenerate
  // (zero-width) boxes; a query clamped to the world edge has min_x = 0.
  // Closed-interval pruning must still reach them.
  auto tree = TprTree::Create();
  ASSERT_TRUE(tree.ok());
  for (NodeId id = 0; id < 60; ++id) {
    tree->Update(id, Model({0.0, 10.0 * id}, {0.0, 0.0}, 0.0));
  }
  const Rect edge_query{0.0, 95.0, 50.0, 305.0};
  const auto hits = tree->QueryAt(edge_query, 5.0);
  // Nodes with y in [100, 300] on the closed min edge: ids 10..30.
  EXPECT_EQ(hits.size(), 21u);
}

class TprTreeFanoutTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(TprTreeFanoutTest, InvariantsAcrossFanouts) {
  TprTreeOptions options;
  options.max_entries = GetParam();
  auto tree = TprTree::Create(options);
  ASSERT_TRUE(tree.ok());
  BruteForce brute;
  Rng rng(1000 + GetParam());
  for (int step = 0; step < 800; ++step) {
    const auto id = static_cast<NodeId>(rng.UniformInt(120));
    if (rng.Bernoulli(0.8)) {
      const LinearMotionModel model =
          Model({rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)},
                {rng.Uniform(-15.0, 15.0), rng.Uniform(-15.0, 15.0)},
                step * 0.1);
      tree->Update(id, model);
      brute.Update(id, model);
    } else {
      tree->Remove(id);
      brute.Remove(id);
    }
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  const double t = 80.5;
  std::vector<NodeId> got = tree->QueryAt(Rect{100, 100, 400, 400}, t);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, brute.QueryAt(Rect{100, 100, 400, 400}, t));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, TprTreeFanoutTest,
                         ::testing::Values(4, 8, 16, 32));

}  // namespace
}  // namespace lira
