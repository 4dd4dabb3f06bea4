#include "lira/common/rng.h"

#include <cmath>
#include <numbers>

namespace lira {
namespace {

// SplitMix64: used only to expand the user seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::operator()() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  LIRA_DCHECK(lo <= hi);
  return lo + (hi - lo) * Uniform01();
}

uint64_t Rng::UniformInt(uint64_t n) {
  LIRA_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = max() - max() % n;
  uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = Uniform01();
  } while (u1 <= 0.0);
  const double u2 = Uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

double Rng::Exponential(double rate) {
  LIRA_CHECK(rate > 0.0);
  double u;
  do {
    u = Uniform01();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) { return Uniform01() < p; }

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    LIRA_DCHECK(w >= 0.0);
    total += w;
  }
  return WeightedIndex(weights, total);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights, double total) {
  LIRA_CHECK(!weights.empty());
  LIRA_CHECK(total > 0.0);
  double target = Uniform01() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    LIRA_DCHECK(weights[i] >= 0.0);
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t stream) {
  const uint64_t mix = (*this)() ^ (stream * 0x9e3779b97f4a7c15ULL);
  return Rng(mix);
}

}  // namespace lira
