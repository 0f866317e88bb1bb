// Noise-cliff reference curve: the statistical contract of the noise
// front end (DESIGN.md §4b).
//
// Noise realizations are not pinned bit for bit; what must survive any
// change to how noise is generated is the read rate it produces. This
// test decodes the bench's micro_sweep geometry (default 4-bit tag,
// 3 m lane, 2 m/s past +/-2.5 m, every frame) at four extra noise
// floors spanning the decode cliff, 16 seeds each, and holds the read
// count per level to a committed reference curve within a 3-sigma
// two-sample binomial band. Labelled `slow` (ctest -L slow), after the
// AWGN SNR-sweep category of PHY test suites.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/em/material.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/trajectory.hpp"
#include "ros/tag/tag.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
using ros::common::derive_stream_seed;

namespace {

constexpr std::uint64_t kSeed = 2026;
constexpr int kTrials = 16;

struct CurvePoint {
  double extra_noise_dbm;
  int reference_reads;  ///< of kTrials
};

// Reads out of kTrials per level, measured with the per-sample
// std::normal_distribution noise generator that predates the batched
// counter-keyed one; later generators are held to it.
constexpr std::array<CurvePoint, 4> kReferenceCurve = {{
    {-46.0, 16},
    {-42.0, 16},
    {-38.0, 8},
    {-34.0, 0},
}};

/// |k - k_ref| within 3 sigma of the difference of two binomial counts
/// over n trials each, with the pooled rate (so a level the reference
/// reads 16/16 still admits a stray miss, and identical counts pass).
bool within_binomial_band(int k, int k_ref, int n) {
  const double p = static_cast<double>(k + k_ref) / (2.0 * n);
  const double sigma = std::sqrt(2.0 * n * p * (1.0 - p));
  return std::abs(k - k_ref) <= 3.0 * sigma;
}

}  // namespace

TEST(NoiseCliff, BinomialBandHandlesSaturatedLevels) {
  EXPECT_TRUE(within_binomial_band(16, 16, 16));
  EXPECT_TRUE(within_binomial_band(15, 16, 16));
  EXPECT_TRUE(within_binomial_band(1, 0, 16));
  EXPECT_TRUE(within_binomial_band(5, 8, 16));
  EXPECT_FALSE(within_binomial_band(8, 16, 16));
  EXPECT_FALSE(within_binomial_band(0, 8, 16));
}

TEST(NoiseCliff, ReadRateMatchesReferenceCurve) {
  const std::vector<bool> bits = {true, false, true, true};
  static const auto stackup = ros::em::StriplineStackup::ros_default();
  rs::Scene world;
  world.add_tag(ros::tag::make_default_tag(bits, &stackup),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  const rs::StraightDrive drive({.lane_offset_m = 3.0,
                                 .speed_mps = 2.0,
                                 .start_x_m = -2.5,
                                 .end_x_m = 2.5});

  for (std::size_t l = 0; l < kReferenceCurve.size(); ++l) {
    const CurvePoint& point = kReferenceCurve[l];
    int reads = 0;
    for (int k = 0; k < kTrials; ++k) {
      rp::InterrogatorConfig config;
      config.frame_stride = 1;
      config.extra_noise_dbm = point.extra_noise_dbm;
      config.noise_seed = derive_stream_seed(derive_stream_seed(kSeed, l),
                                             static_cast<std::uint64_t>(k));
      reads += rp::decode_drive(world, drive, {0.0, 0.0}, config)
                   .decode.bits == bits;
    }
    RecordProperty("reads_at_" +
                       std::to_string(static_cast<int>(point.extra_noise_dbm)) +
                       "dBm",
                   reads);
    EXPECT_TRUE(within_binomial_band(reads, point.reference_reads, kTrials))
        << point.extra_noise_dbm << " dBm: " << reads << "/" << kTrials
        << " reads, reference " << point.reference_reads << "/" << kTrials;
  }
}
