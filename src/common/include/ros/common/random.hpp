// Deterministic random number generation.
//
// Every stochastic component in the library (noise front ends, clutter
// fluctuation, DE-GA) takes an explicit seed so experiments reproduce
// bit-for-bit; this wrapper keeps the distribution plumbing in one place.
#pragma once

#include <cstdint>
#include <random>

#include "ros/common/units.hpp"

namespace ros::common {

/// SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
/// number generators"): a cheap bijective avalanche mix of a 64-bit
/// word. Building block for derive_stream_seed.
std::uint64_t splitmix64(std::uint64_t x);

/// Derive the seed of an independent sub-stream `stream` from a master
/// `seed`. Counter-based: stream k of a given seed is always the same
/// value, distinct streams decorrelate even for adjacent counters, and
/// no draws from any other stream are consumed — which is what lets a
/// parallel loop give frame/trial k its own Rng and still match the
/// serial run bit for bit.
std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Seedable random source. Not thread-safe; use one per thread (e.g.
/// one per derive_stream_seed stream inside a parallel_for body).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Standard normal scaled: N(mean, stddev^2). stddev == 0 returns
  /// `mean` and advances the stream exactly like any other stddev.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Access the underlying engine (e.g. for std::shuffle).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ros::common
