// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library draws from an explicitly seeded
// Rng so that traces, workloads and simulation runs are reproducible
// bit-for-bit. The core generator is xoshiro256**, seeded via SplitMix64;
// both are public-domain algorithms by Blackman & Vigna.

#ifndef LIRA_COMMON_RNG_H_
#define LIRA_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "lira/common/check.h"

namespace lira {

/// Deterministic random number generator (xoshiro256**). Not thread-safe;
/// use one instance per thread or component. Satisfies the
/// UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64 random bits.
  uint64_t operator()();

  /// Uniform double in [0, 1).
  double Uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Requires a non-empty vector with non-negative weights
  /// and a positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// The same draw with the weights' sum precomputed, for callers drawing
  /// many times from one vector. `total` must be the sum of `weights` added
  /// left to right (std::accumulate), for the draws to match the form
  /// above bit for bit.
  size_t WeightedIndex(const std::vector<double>& weights, double total);

  /// Forks an independent generator deterministically derived from this
  /// one's state and the given stream id. Useful for giving each vehicle or
  /// component its own stream.
  Rng Fork(uint64_t stream);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace lira

#endif  // LIRA_COMMON_RNG_H_
