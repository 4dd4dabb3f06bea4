// Incremental-vs-rescan equivalence (ISSUE 3): the IncrementalEvaluator
// must be bitwise identical to the original GridIndex + CompareAllQueries
// path, for any thread count, under randomized motion with cell crossings,
// clamping excursions, and believed-position churn.

#include "lira/cq/incremental_evaluator.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/cq/evaluator.h"
#include "lira/index/grid_index.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1000.0, 1000.0};
constexpr int32_t kCells = 8;
constexpr int32_t kNodes = 250;
constexpr int32_t kSamples = 30;

struct MotionSample {
  std::vector<Point> truth;
  std::vector<Point> believed;
  std::vector<char> known;
};

/// Random walk with a mix of small jitter (exercises the box skip),
/// medium hops (cell crossings), and teleports, wandering slightly outside
/// the world to exercise clamping. Believed positions are noisy offsets of
/// truth and occasionally unknown.
std::vector<MotionSample> MakeMotion(uint64_t seed,
                                     int32_t samples = kSamples) {
  Rng rng(seed);
  std::vector<MotionSample> motion(samples);
  std::vector<Point> pos(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    pos[id] = {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
  }
  for (int32_t s = 0; s < samples; ++s) {
    MotionSample& out = motion[s];
    out.truth.resize(kNodes);
    out.believed.resize(kNodes);
    out.known.resize(kNodes);
    for (NodeId id = 0; id < kNodes; ++id) {
      const double kind = rng.Uniform(0.0, 1.0);
      double step = 2.0;
      if (kind > 0.95) {
        pos[id] = {rng.Uniform(-30.0, 1030.0), rng.Uniform(-30.0, 1030.0)};
        step = 0.0;
      } else if (kind > 0.5) {
        step = 40.0;
      }
      pos[id].x += rng.Uniform(-step, step);
      pos[id].y += rng.Uniform(-step, step);
      out.truth[id] = pos[id];
      out.known[id] = rng.Uniform(0.0, 1.0) < 0.9 ? 1 : 0;
      out.believed[id] = {pos[id].x + rng.Uniform(-25.0, 25.0),
                          pos[id].y + rng.Uniform(-25.0, 25.0)};
    }
  }
  return motion;
}

/// Road-like motion on the integer lattice: each node moves along one axis
/// at a time in whole-meter steps (switching axis now and then, with rare
/// 40 m hops), so positions land exactly on the integer query edges of
/// MakeLatticeQueries and on the 125 m cell edges. Believed positions are
/// integer offsets of truth along the same axis, occasionally unknown; a
/// few nodes stray past the world edge to exercise clamping.
std::vector<MotionSample> MakeAxisMotion(uint64_t seed) {
  Rng rng(seed);
  std::vector<MotionSample> motion(kSamples);
  std::vector<Point> pos(kNodes);
  std::vector<int> axis(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    pos[id] = {static_cast<double>(rng.UniformInt(1001)),
               static_cast<double>(rng.UniformInt(1001))};
    axis[id] = static_cast<int>(rng.UniformInt(2));
  }
  const auto step = [&rng](int64_t reach) {
    return static_cast<double>(
               rng.UniformInt(static_cast<uint64_t>(2 * reach + 1))) -
           static_cast<double>(reach);
  };
  for (MotionSample& out : motion) {
    out.truth.resize(kNodes);
    out.believed.resize(kNodes);
    out.known.resize(kNodes);
    for (NodeId id = 0; id < kNodes; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.1) {
        axis[id] = 1 - axis[id];
      }
      const double d = rng.Uniform(0.0, 1.0) < 0.05 ? step(40) : step(3);
      double& coord = axis[id] == 0 ? pos[id].x : pos[id].y;
      coord = std::clamp(coord + d, -5.0, 1005.0);
      out.truth[id] = pos[id];
      out.known[id] = rng.Uniform(0.0, 1.0) < 0.9 ? 1 : 0;
      Point believed = pos[id];
      (axis[id] == 0 ? believed.x : believed.y) += step(10);
      out.believed[id] = believed;
    }
  }
  return motion;
}

QueryRegistry MakeQueries(uint64_t seed, int32_t count = 40) {
  Rng rng(seed);
  QueryRegistry registry;
  for (int32_t q = 0; q < count; ++q) {
    const double side = rng.Uniform(0.0, 1.0) < 0.5 ? rng.Uniform(20.0, 80.0)
                                                    : rng.Uniform(150.0, 450.0);
    const double x0 = rng.Uniform(-100.0, 1000.0);
    const double y0 = rng.Uniform(-100.0, 1000.0);
    registry.Add(Rect{x0, y0, x0 + side, y0 + side});
  }
  return registry;
}

/// Queries with integer corners, some on the 125 m cell lines.
QueryRegistry MakeLatticeQueries(uint64_t seed, int32_t count = 40) {
  Rng rng(seed);
  QueryRegistry registry;
  for (int32_t q = 0; q < count; ++q) {
    double x0 = static_cast<double>(rng.UniformInt(1000)) - 50.0;
    double y0 = static_cast<double>(rng.UniformInt(1000)) - 50.0;
    if (q % 4 == 0) {
      x0 = 125.0 * static_cast<double>(rng.UniformInt(8));
      y0 = 125.0 * static_cast<double>(rng.UniformInt(8));
    }
    const double w = static_cast<double>(rng.UniformInt(300) + 1);
    const double h = static_cast<double>(rng.UniformInt(300) + 1);
    registry.Add(Rect{x0, y0, x0 + w, y0 + h});
  }
  return registry;
}

/// The original per-sample path: serial index maintenance + full rescan.
std::vector<std::vector<QueryAccuracy>> ReferenceOutputs(
    const std::vector<MotionSample>& motion, const QueryRegistry& registry) {
  auto truth = GridIndex::Create(kWorld, kCells, kNodes);
  auto believed = GridIndex::Create(kWorld, kCells, kNodes);
  EXPECT_TRUE(truth.ok() && believed.ok());
  std::vector<std::vector<QueryAccuracy>> outputs;
  for (const MotionSample& sample : motion) {
    for (NodeId id = 0; id < kNodes; ++id) {
      truth->Update(id, sample.truth[id]);
      if (sample.known[id] != 0) {
        believed->Update(id, sample.believed[id]);
      } else {
        believed->Remove(id);
      }
    }
    outputs.push_back(CompareAllQueries(*truth, *believed, registry));
  }
  return outputs;
}

void ExpectBitwiseEqual(const std::vector<QueryAccuracy>& got,
                        const std::vector<QueryAccuracy>& want,
                        int32_t sample) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].containment_error, want[q].containment_error)
        << "sample " << sample << " query " << q;
    ASSERT_EQ(got[q].position_error, want[q].position_error)
        << "sample " << sample << " query " << q;
    ASSERT_EQ(got[q].truth_size, want[q].truth_size)
        << "sample " << sample << " query " << q;
    ASSERT_EQ(got[q].believed_size, want[q].believed_size)
        << "sample " << sample << " query " << q;
  }
}

/// Runs both evaluator modes over `motion` and checks every sample's output
/// bitwise against the reference rescan.
void ExpectMatchesRescan(const std::vector<MotionSample>& motion,
                         const QueryRegistry& registry, int32_t threads) {
  const auto reference = ReferenceOutputs(motion, registry);
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (const EvalMode mode :
       {EvalMode::kIncremental, EvalMode::kFullRescan}) {
    auto evaluator =
        IncrementalEvaluator::Create(kWorld, kCells, kNodes, registry, mode);
    ASSERT_TRUE(evaluator.ok());
    for (int32_t s = 0; s < kSamples; ++s) {
      evaluator->ApplySample(motion[s].truth, motion[s].believed,
                             motion[s].known, pool_ptr);
      ExpectBitwiseEqual(evaluator->Evaluate(pool_ptr), reference[s], s);
    }
    if (mode == EvalMode::kIncremental) {
      EXPECT_GT(evaluator->deltas_applied(), 0);
      EXPECT_GT(evaluator->queries_touched(), 0);
    }
  }
}

class IncrementalEvaluatorEquivalenceTest
    : public ::testing::TestWithParam<int32_t> {};

TEST_P(IncrementalEvaluatorEquivalenceTest,
       RandomMotionMatchesFullRescanBitwise) {
  ExpectMatchesRescan(MakeMotion(1234), MakeQueries(77), GetParam());
}

// Exact-edge input: integer positions on integer query edges and cell
// edges, where a half-open edge or a strict box bound decides membership.
TEST_P(IncrementalEvaluatorEquivalenceTest,
       AxisMotionOnQueryAndCellEdgesMatchesFullRescanBitwise) {
  ExpectMatchesRescan(MakeAxisMotion(4321), MakeLatticeQueries(78),
                      GetParam());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, IncrementalEvaluatorEquivalenceTest,
                         ::testing::Values(1, 2, 8));

TEST(IncrementalEvaluatorTest, QueryAddAndRemoveMidRun) {
  const std::vector<MotionSample> motion = MakeMotion(555);
  QueryRegistry registry = MakeQueries(9, /*count=*/10);
  ThreadPool pool(2);

  auto evaluator =
      IncrementalEvaluator::Create(kWorld, kCells, kNodes, registry);
  ASSERT_TRUE(evaluator.ok());
  // Reference indexes maintained in lockstep.
  auto truth = GridIndex::Create(kWorld, kCells, kNodes);
  auto believed = GridIndex::Create(kWorld, kCells, kNodes);
  ASSERT_TRUE(truth.ok() && believed.ok());

  const Rect added{300.0, 300.0, 650.0, 700.0};
  QueryId added_id = -1;
  QueryId removed_id = 3;
  for (int32_t s = 0; s < kSamples; ++s) {
    if (s == 10) {
      added_id = evaluator->AddQuery(added);
      EXPECT_EQ(added_id, registry.Add(added));
    }
    if (s == 20) {
      evaluator->RemoveQuery(removed_id);
    }
    evaluator->ApplySample(motion[s].truth, motion[s].believed,
                           motion[s].known, &pool);
    for (NodeId id = 0; id < kNodes; ++id) {
      truth->Update(id, motion[s].truth[id]);
      if (motion[s].known[id] != 0) {
        believed->Update(id, motion[s].believed[id]);
      } else {
        believed->Remove(id);
      }
    }
    const auto want = CompareAllQueries(*truth, *believed, registry);
    const auto got = evaluator->Evaluate(&pool);
    ASSERT_EQ(got.size(), want.size()) << "sample " << s;
    for (size_t q = 0; q < got.size(); ++q) {
      if (s >= 20 && static_cast<QueryId>(q) == removed_id) {
        EXPECT_EQ(got[q].truth_size, 0);
        EXPECT_EQ(got[q].believed_size, 0);
        EXPECT_EQ(got[q].containment_error, 0.0);
        EXPECT_EQ(got[q].position_error, 0.0);
        continue;
      }
      ASSERT_EQ(got[q].containment_error, want[q].containment_error)
          << "sample " << s << " query " << q;
      ASSERT_EQ(got[q].position_error, want[q].position_error)
          << "sample " << s << " query " << q;
      ASSERT_EQ(got[q].truth_size, want[q].truth_size)
          << "sample " << s << " query " << q;
      ASSERT_EQ(got[q].believed_size, want[q].believed_size)
          << "sample " << s << " query " << q;
    }
  }
}

TEST(IncrementalEvaluatorTest, EmptyResultsAndEmptyRegistryEdgeCases) {
  QueryRegistry registry;
  registry.Add(Rect{900.0, 900.0, 950.0, 950.0});  // nobody here
  registry.Add(Rect{0.0, 0.0, 1000.0, 1000.0});    // everybody here
  auto evaluator =
      IncrementalEvaluator::Create(kWorld, kCells, /*num_nodes=*/4, registry);
  ASSERT_TRUE(evaluator.ok());

  // Before any sample: all member sets empty.
  auto out = evaluator->Evaluate();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].truth_size, 0);
  EXPECT_EQ(out[0].containment_error, 0.0);
  EXPECT_EQ(out[1].position_error, 0.0);

  // All nodes clustered far from query 0; believed entirely unknown, so the
  // believed sets are empty and containment error is |truth| / |truth|.
  std::vector<Point> truth(4, Point{100.0, 100.0});
  std::vector<Point> believed(4);
  std::vector<char> known(4, 0);
  evaluator->ApplySample(truth, believed, known);
  out = evaluator->Evaluate();
  EXPECT_EQ(out[0].truth_size, 0);
  EXPECT_EQ(out[0].believed_size, 0);
  EXPECT_EQ(out[0].containment_error, 0.0);
  EXPECT_EQ(out[1].truth_size, 4);
  EXPECT_EQ(out[1].believed_size, 0);
  EXPECT_EQ(out[1].containment_error, 1.0);  // 4 missing / |truth| = 4
  EXPECT_EQ(out[1].position_error, 0.0);

  // Empty registry evaluates to an empty vector without touching anything.
  QueryRegistry empty;
  auto none = IncrementalEvaluator::Create(kWorld, kCells, 4, empty);
  ASSERT_TRUE(none.ok());
  none->ApplySample(truth, believed, known);
  EXPECT_TRUE(none->Evaluate().empty());
}

}  // namespace
}  // namespace lira
