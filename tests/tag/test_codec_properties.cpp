// Property-style parameterized sweeps over the codec design space:
// every (unit spacing, bit count, distance) combination in the practical
// range must round-trip through the analytic RCS model, and the
// interference-freedom guarantee must hold for every layout.
#include <gtest/gtest.h>

#include <cmath>

#include "ros/common/grid.hpp"
#include "ros/common/random.hpp"
#include "ros/tag/codec.hpp"
#include "ros/tag/rcs_model.hpp"
#include "ros/tag/tag.hpp"

namespace rt = ros::tag;
namespace rc = ros::common;

namespace {

std::vector<bool> random_bits(int n, rc::Rng& rng) {
  std::vector<bool> bits(static_cast<std::size_t>(n));
  bool any = false;
  for (auto&& b : bits) {
    b = rng.bernoulli(0.5);
    any = any || b;
  }
  if (!any) bits[0] = true;  // all-zero payloads are undecodable
  return bits;
}

}  // namespace

// ---------------------------------------------------------------------
// Sweep 1: unit spacing delta_c.
class SpacingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpacingSweep, AnalyticRoundTripAndCleanBand) {
  const double spacing = GetParam();
  rt::LayoutParams lp;
  lp.unit_spacing_lambda = spacing;
  rt::DecoderConfig dc;
  dc.unit_spacing_lambda = spacing;
  const rt::SpatialDecoder decoder(dc);
  rc::Rng rng(static_cast<std::uint64_t>(spacing * 100));
  for (int trial = 0; trial < 6; ++trial) {
    const auto bits = random_bits(4, rng);
    const auto lay = rt::TagLayout::from_bits(bits, lp);
    EXPECT_TRUE(rt::coding_band_clean(lay, 0.3 * spacing));
    const auto us = rc::linspace(-0.6, 0.6, 700);
    std::vector<double> rcs(us.size());
    for (std::size_t i = 0; i < us.size(); ++i) {
      rcs[i] = rt::multi_stack_rcs_factor(lay, us[i]);
    }
    EXPECT_EQ(decoder.decode(us, rcs).bits, bits)
        << "spacing " << spacing << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaC, SpacingSweep,
                         ::testing::Values(1.0, 1.25, 1.5, 2.0));

// ---------------------------------------------------------------------
// Sweep 2: payload size (tag family width).
class BitCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitCountSweep, AnalyticRoundTrip) {
  const int n_bits = GetParam();
  rt::LayoutParams lp;
  lp.n_bits = n_bits;
  rt::DecoderConfig dc;
  dc.n_bits = n_bits;
  const rt::SpatialDecoder decoder(dc);
  rc::Rng rng(static_cast<std::uint64_t>(n_bits));
  for (int trial = 0; trial < 5; ++trial) {
    const auto bits = random_bits(n_bits, rng);
    const auto lay = rt::TagLayout::from_bits(bits, lp);
    EXPECT_TRUE(rt::coding_band_clean(lay, 0.4));
    // Wider tags need a wider u window for resolution.
    const auto us = rc::linspace(-0.7, 0.7, 1200);
    std::vector<double> rcs(us.size());
    for (std::size_t i = 0; i < us.size(); ++i) {
      rcs[i] = rt::multi_stack_rcs_factor(lay, us[i]);
    }
    EXPECT_EQ(decoder.decode(us, rcs).bits, bits)
        << n_bits << " bits, trial " << trial;
  }
}

// Every codeword of the family, including the all-zero one, under an
// antenna-pattern droop and measurement noise (the 4-bit family's
// noisy round trip lives in test_codec.cpp).
TEST_P(BitCountSweep, NoisyEveryCodeword) {
  const int n_bits = GetParam();
  rt::LayoutParams lp;
  lp.n_bits = n_bits;
  rt::DecoderConfig dc;
  dc.n_bits = n_bits;
  const rt::SpatialDecoder decoder(dc);
  const auto us = rc::linspace(-0.55, 0.55, 900);
  for (int pattern = 0; pattern < (1 << n_bits); ++pattern) {
    std::vector<bool> bits(static_cast<std::size_t>(n_bits));
    for (int k = 0; k < n_bits; ++k) bits[k] = (pattern >> k) & 1;
    const auto lay = rt::TagLayout::from_bits(bits, lp);
    rc::Rng rng(static_cast<std::uint64_t>(n_bits * 100 + pattern + 1));
    std::vector<double> rcs(us.size());
    for (std::size_t i = 0; i < us.size(); ++i) {
      const double env = std::exp(-2.0 * us[i] * us[i]);
      rcs[i] = env * (rt::multi_stack_rcs_factor(lay, us[i]) + 1.5 +
                      rng.normal(0.0, 0.4));
    }
    EXPECT_EQ(decoder.decode(us, rcs).bits, bits)
        << n_bits << " bits, pattern " << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, BitCountSweep,
                         ::testing::Values(2, 3, 5, 7, 8));

// ---------------------------------------------------------------------
// Sweep 3: physical tag across interrogation distances (far field on).
class DistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(DistanceSweep, PhysicalRoundTrip) {
  static const auto stackup = ros::em::StriplineStackup::ros_default();
  const double d = GetParam();
  const std::vector<bool> bits = {true, false, true, true};
  const auto tag = rt::make_default_tag(bits, &stackup, 32, true);
  const auto us = rc::linspace(-0.45, 0.45, 700);
  std::vector<double> rcs(us.size());
  for (std::size_t i = 0; i < us.size(); ++i) {
    rcs[i] =
        std::norm(tag.retro_scattering_length(std::asin(us[i]), d, 0.0,
                                              79e9));
  }
  const rt::SpatialDecoder decoder;
  EXPECT_EQ(decoder.decode(us, rcs).bits, bits) << "d = " << d;
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceSweep,
                         ::testing::Values(3.0, 4.0, 5.0, 6.0, 8.0, 12.0));

// ---------------------------------------------------------------------
// Invariant: the spectrum amplitude of an occupied slot always exceeds
// every unoccupied slot for the same tag (the OOK separation property).
TEST(CodecProperties, OccupiedSlotsAlwaysBeatEmptyOnes) {
  rc::Rng rng(77);
  const rt::SpatialDecoder decoder;
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = random_bits(4, rng);
    const auto lay = rt::TagLayout::from_bits(bits, {});
    const auto us = rc::linspace(-0.55, 0.55, 600);
    std::vector<double> rcs(us.size());
    for (std::size_t i = 0; i < us.size(); ++i) {
      rcs[i] = rt::multi_stack_rcs_factor(lay, us[i]);
    }
    const auto r = decoder.decode(us, rcs);
    double min_one = 1e300;
    double max_zero = 0.0;
    for (std::size_t k = 0; k < bits.size(); ++k) {
      if (bits[k]) {
        min_one = std::min(min_one, r.slot_amplitudes[k]);
      } else {
        max_zero = std::max(max_zero, r.slot_amplitudes[k]);
      }
    }
    if (min_one < 1e300) {
      EXPECT_GT(min_one, max_zero) << "trial " << trial;
    }
  }
}
