#include "ros/common/random.hpp"

#include <cmath>

#include "ros/common/expect.hpp"

namespace ros::common {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // Mix the counter before combining so that adjacent streams of the
  // same seed land in unrelated parts of the seed space, then finalize.
  return splitmix64(seed ^ splitmix64(stream + 0x632BE59BD9B4E019ull));
}

double Rng::uniform(double lo, double hi) {
  ROS_EXPECT(lo <= hi, "uniform range must be ordered");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  ROS_EXPECT(lo <= hi, "uniform_int range must be ordered");
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  ROS_EXPECT(stddev >= 0.0, "stddev must be non-negative");
  // normal_distribution(mean, stddev) requires stddev > 0. Scaling a
  // standard-normal draw gives the identical z * stddev + mean, and at
  // stddev == 0 it still consumes the draw, so later values of the
  // stream do not depend on whether a tolerance was zero.
  return std::normal_distribution<double>()(engine_) * stddev + mean;
}

bool Rng::bernoulli(double p) {
  ROS_EXPECT(p >= 0.0 && p <= 1.0, "probability must be in [0,1]");
  return std::bernoulli_distribution(p)(engine_);
}

}  // namespace ros::common
