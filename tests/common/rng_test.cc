#include "lira/common/rng.h"

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace lira {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i) {
    if (a() != b()) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Uniform01();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 9.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.UniformInt(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexSingleElement) {
  Rng rng(37);
  EXPECT_EQ(rng.WeightedIndex({5.0}), 0u);
}

TEST(RngTest, WeightedIndexWithTotalMatchesOneArgumentForm) {
  // A zero-weight tail: neither form may ever return it.
  const std::vector<double> weights = {0.1, 0.7, 0.2, 2.5, 0.0, 0.0};
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  Rng a(47);
  Rng b(47);
  for (int i = 0; i < 10000; ++i) {
    const size_t index = a.WeightedIndex(weights);
    EXPECT_EQ(index, b.WeightedIndex(weights, total));
    EXPECT_LT(index, 4u);
  }
  // A total above the weights' sum leaves slack at the end of the
  // subtraction chain, the case float rounding leaves rarely. The slack
  // falls back to the last positive weight, never into the zero tail.
  Rng c(53);
  int last_positive = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const size_t index = c.WeightedIndex(weights, 2.0 * total);
    EXPECT_LT(index, 4u);
    last_positive += index == 3 ? 1 : 0;
  }
  EXPECT_GT(last_positive, n / 2);  // every slack draw plus index 3's share
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(41);
  Rng fork1 = parent.Fork(1);
  Rng fork2 = parent.Fork(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i) {
    if (fork1() != fork2()) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(43);
  Rng b(43);
  Rng fa = a.Fork(9);
  Rng fb = b.Fork(9);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fa(), fb());
  }
}

}  // namespace
}  // namespace lira
