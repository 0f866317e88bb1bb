// Metamorphic spatial-coding suite (ros::testkit, ISSUE satellite).
//
// Sec. 5 fixes how the RCS spectrum must transform under layout and
// drive transformations: mirroring the layout mirrors the RCS in u (and
// the decode cannot tell), doubling delta_c doubles every slot spacing,
// and the decoder may not care in which order the drive delivered its
// (u, RSS) samples. Each property test perturbs a RANDOM layout/drive
// through one of these relations and checks the paper-mandated image.
// Two fixed-pattern cases pin the decoder's blindness to the RSS scale
// (envelope whitening) and to a few percent of odometry drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "ros/common/grid.hpp"
#include "ros/common/random.hpp"
#include "ros/tag/codec.hpp"
#include "ros/tag/rcs_model.hpp"
#include "ros/testkit/domain.hpp"
#include "ros/testkit/property.hpp"

namespace rt = ros::tag;
namespace tk = ros::testkit;
using ros::common::linspace;
using ros::common::Rng;

namespace {

struct Series {
  std::vector<double> u;
  std::vector<double> rcs;
};

Series analytic_series(const rt::TagLayout& lay, double u_max,
                       std::size_t n) {
  Series s;
  s.u = linspace(-u_max, u_max, n);
  s.rcs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.rcs[i] = rt::multi_stack_rcs_factor(lay, s.u[i]);
  }
  return s;
}

/// Eq. 6 drive with an antenna-pattern droop, a reference offset and
/// additive measurement noise.
Series noisy_series(const rt::TagLayout& lay, std::uint64_t seed,
                    double noise_std = 0.4) {
  Series s = analytic_series(lay, 0.55, 900);
  Rng rng(seed);
  for (std::size_t i = 0; i < s.u.size(); ++i) {
    const double env = std::exp(-2.0 * s.u[i] * s.u[i]);
    s.rcs[i] = env * (s.rcs[i] + 1.5 + rng.normal(0.0, noise_std));
  }
  return s;
}

std::vector<bool> pattern_bits(int pattern) {
  std::vector<bool> bits(4);
  for (int k = 0; k < 4; ++k) bits[k] = (pattern >> k) & 1;
  return bits;
}

rt::DecoderConfig config_for(const rt::LayoutParams& p) {
  rt::DecoderConfig dc;
  dc.n_bits = p.n_bits;
  dc.unit_spacing_lambda = p.unit_spacing_lambda;
  dc.design_hz = p.design_hz;
  return dc;
}

/// Layout families with a little decode margin: delta_c >= 1.2 so the
/// +/-0.4 lambda slot windows stay clear of neighboring peaks at the
/// u-window (|u| <= 0.7) these tests drive. The tightest legal family
/// (c = 1.0) is exercised by the formula-level properties instead.
tk::Gen<rt::LayoutParams> decodable_params_gen() {
  return tk::tuple_of(tk::uniform_int(2, 6), tk::uniform(1.2, 2.0))
      .map([](const std::tuple<int, double>& t) {
        rt::LayoutParams p;
        p.n_bits = std::get<0>(t);
        p.unit_spacing_lambda = std::get<1>(t);
        return p;
      });
}

tk::Gen<std::pair<rt::LayoutParams, std::vector<bool>>> family_gen() {
  return decodable_params_gen().and_then([](const rt::LayoutParams& p) {
    return tk::bits_gen(p.n_bits).map(
        [p](const std::vector<bool>& bits) {
          return std::make_pair(p, bits);
        });
  });
}

}  // namespace

TEST(CodecMetamorphic, MirrorLayoutMirrorsRcsExactly) {
  // Eq. 6: negating every stack position conjugates the field factor,
  // so |F|^2 of the mirrored layout at u equals the original at -u --
  // bit for bit, since the real part is shared and the imaginary part
  // only flips sign.
  ROS_PROPERTY(
      "mirror layout = mirrored RCS", tk::tag_layout_gen(),
      [](const rt::TagLayout& lay) -> std::string {
        const auto& pos = lay.stack_positions();
        std::vector<double> mirrored(pos.size());
        for (std::size_t i = 0; i < pos.size(); ++i) mirrored[i] = -pos[i];
        const double lambda = lay.wavelength();
        for (double u : {0.07, -0.23, 0.41, 0.66}) {
          const double a = std::norm(
              rt::multi_stack_field_factor(mirrored, u, lambda));
          const double b = std::norm(
              rt::multi_stack_field_factor(pos, -u, lambda));
          if (a != b) {
            return "mirror asymmetry at u=" + std::to_string(u);
          }
        }
        return "";
      });
}

TEST(CodecMetamorphic, MirroredDriveDecodesIdentically) {
  // Driving past the tag in the opposite direction samples u -> -u.
  // The spectrum depends on spacings only, so the payload must survive
  // the mirror unchanged.
  ROS_PROPERTY_N(
      "mirrored drive decode", 100, family_gen(),
      [](const std::pair<rt::LayoutParams,
                         std::vector<bool>>& fam) -> std::string {
        const auto lay = rt::TagLayout::from_bits(fam.second, fam.first);
        const auto s = analytic_series(lay, 0.7, 900);
        std::vector<double> u_neg(s.u.size());
        for (std::size_t i = 0; i < s.u.size(); ++i) u_neg[i] = -s.u[i];
        const rt::SpatialDecoder decoder(config_for(fam.first));
        const auto fwd = decoder.decode(s.u, s.rcs);
        const auto rev = decoder.decode(u_neg, s.rcs);
        if (fwd.bits != fam.second) return "forward decode wrong";
        if (rev.bits != fwd.bits) return "mirrored drive decoded differently";
        for (std::size_t k = 0; k < fwd.slot_amplitudes.size(); ++k) {
          if (std::abs(fwd.slot_amplitudes[k] - rev.slot_amplitudes[k]) >
              1e-6 * (1.0 + fwd.slot_amplitudes[k])) {
            return "slot amplitude moved under mirroring";
          }
        }
        return "";
      });
}

TEST(CodecMetamorphic, DoublingUnitSpacingDoublesSlotSpacings) {
  // Sec. 5.2: d_k = (M + k - 2) delta_c is linear in delta_c, so the
  // whole barcode dilates by exactly 2 when delta_c doubles -- in the
  // layout, in the decoder's slot table, and in the predicted peak set.
  ROS_PROPERTY(
      "delta_c doubling dilates the barcode", decodable_params_gen(),
      [](const rt::LayoutParams& p) -> std::string {
        rt::LayoutParams doubled = p;
        doubled.unit_spacing_lambda = 2.0 * p.unit_spacing_lambda;
        const auto lay = rt::TagLayout::all_ones(p);
        const auto lay2 = rt::TagLayout::all_ones(doubled);
        for (int k = 1; k <= p.n_bits; ++k) {
          if (std::abs(lay2.slot_spacing_lambda(k) -
                       2.0 * lay.slot_spacing_lambda(k)) > 1e-9) {
            return "slot " + std::to_string(k) + " did not double";
          }
        }
        const rt::SpatialDecoder dec(config_for(p));
        const rt::SpatialDecoder dec2(config_for(doubled));
        for (int k = 1; k <= p.n_bits; ++k) {
          if (std::abs(dec2.slot_spacing_lambda(k) -
                       2.0 * dec.slot_spacing_lambda(k)) > 1e-9) {
            return "decoder slot table did not double";
          }
        }
        const auto peaks = rt::predicted_peaks(lay);
        const auto peaks2 = rt::predicted_peaks(lay2);
        if (peaks.size() != peaks2.size()) return "peak count changed";
        for (std::size_t i = 0; i < peaks.size(); ++i) {
          if (std::abs(peaks2[i].spacing_lambda -
                       2.0 * peaks[i].spacing_lambda) > 1e-9) {
            return "predicted peak did not double";
          }
        }
        return "";
      });
}

TEST(CodecMetamorphic, DoubledFamilyStillRoundTrips) {
  // The dilated tag is a valid tag: the matching decoder reads the same
  // payload out of its (rescaled) spectrum. Windowing per Sec. 5.1: the
  // doubled band needs no extra u span, only the same resolution.
  ROS_PROPERTY_N(
      "doubled family round-trips", 60, family_gen(),
      [](const std::pair<rt::LayoutParams,
                         std::vector<bool>>& fam) -> std::string {
        rt::LayoutParams doubled = fam.first;
        doubled.unit_spacing_lambda =
            std::min(2.0 * fam.first.unit_spacing_lambda, 3.0);
        const auto lay = rt::TagLayout::from_bits(fam.second, doubled);
        const auto s = analytic_series(lay, 0.7, 1400);
        const rt::SpatialDecoder decoder(config_for(doubled));
        if (decoder.decode(s.u, s.rcs).bits != fam.second) {
          return "dilated tag decoded wrong payload";
        }
        return "";
      });
}

TEST(CodecMetamorphic, DecodeInvariantUnderSampleOrder) {
  // The interrogator feeds samples in drive order; the decoder promises
  // order independence (the spectrum sorts internally). Any permutation
  // must yield a bit-identical DecodeResult.
  ROS_PROPERTY_N(
      "decode sample-order invariance", 100,
      tk::pair_of(family_gen(), tk::uniform_int(0, 1 << 30)),
      [](const std::pair<std::pair<rt::LayoutParams, std::vector<bool>>,
                         int>& c) -> std::string {
        const auto& fam = c.first;
        const auto lay = rt::TagLayout::from_bits(fam.second, fam.first);
        const auto s = analytic_series(lay, 0.7, 500);
        Rng rng(static_cast<std::uint64_t>(c.second) + 17);
        const auto perm = tk::permutation_of(s.u.size())(rng);
        std::vector<double> u_p(s.u.size());
        std::vector<double> rcs_p(s.u.size());
        for (std::size_t i = 0; i < perm.size(); ++i) {
          u_p[i] = s.u[perm[i]];
          rcs_p[i] = s.rcs[perm[i]];
        }
        const rt::SpatialDecoder decoder(config_for(fam.first));
        const auto a = decoder.decode(s.u, s.rcs);
        const auto b = decoder.decode(u_p, rcs_p);
        if (a.bits != b.bits) return "bits changed under sample order";
        if (a.slot_amplitudes != b.slot_amplitudes) {
          return "slot amplitudes changed under sample order";
        }
        if (a.band_rms != b.band_rms) return "band RMS changed";
        return "";
      });
}

TEST(CodecMetamorphic, RandomFamilyRoundTripsAndBandStaysClean) {
  // Random valid family + payload: the analytic Eq. 6 drive decodes to
  // exactly the encoded bits, and Sec. 5.2's interference-freedom claim
  // holds (no secondary peak inside a coding slot's guard band).
  ROS_PROPERTY_N(
      "random family round-trip", 120, family_gen(),
      [](const std::pair<rt::LayoutParams,
                         std::vector<bool>>& fam) -> std::string {
        const auto lay = rt::TagLayout::from_bits(fam.second, fam.first);
        if (!rt::coding_band_clean(lay, 0.4)) {
          return "secondary peak inside a coding slot window";
        }
        const auto s = analytic_series(lay, 0.7, 1000);
        const rt::SpatialDecoder decoder(config_for(fam.first));
        const auto r = decoder.decode(s.u, s.rcs);
        if (r.bits != fam.second) {
          return "payload corrupted in round trip";
        }
        return "";
      });
}

TEST(CodecMetamorphic, AmplitudeScalingLeavesBitsAndSlotAmplitudes) {
  // Envelope whitening divides by the envelope mean, so scaling the RSS
  // by any positive constant leaves the whitened series, and therefore
  // the decision variables and bits, unchanged up to rounding.
  const rt::SpatialDecoder decoder;
  for (const int pattern : {0b1101, 0b0011, 0b1000}) {
    const auto lay = rt::TagLayout::from_bits(pattern_bits(pattern), {});
    const auto s = noisy_series(lay, static_cast<std::uint64_t>(pattern) + 9);
    const auto base = decoder.decode(s.u, s.rcs);
    for (const double scale : {1e-3, 0.25, 7.0, 4096.0}) {
      Series scaled = s;
      for (double& y : scaled.rcs) y *= scale;
      const auto r = decoder.decode(scaled.u, scaled.rcs);
      EXPECT_EQ(r.bits, base.bits) << "scale " << scale;
      ASSERT_EQ(r.slot_amplitudes.size(), base.slot_amplitudes.size());
      for (std::size_t k = 0; k < base.slot_amplitudes.size(); ++k) {
        EXPECT_NEAR(r.slot_amplitudes[k], base.slot_amplitudes[k], 1e-9)
            << "scale " << scale << " slot " << k + 1;
      }
    }
  }
}

TEST(CodecMetamorphic, ToleratesOdometryDrift) {
  // Estimated u stretched by (1 + drift): every apparent spacing
  // compresses by the same factor, up to 0.32 lambda at the top slot,
  // which the +/-0.4 lambda slot window search absorbs.
  const rt::SpatialDecoder decoder;
  for (const int pattern : {0b1011, 0b1101, 0b0110}) {
    const auto lay = rt::TagLayout::from_bits(pattern_bits(pattern), {});
    for (const double drift : {0.0, 0.01, 0.02, 0.03}) {
      auto s = noisy_series(lay, static_cast<std::uint64_t>(pattern) + 31,
                            0.2);
      for (double& u : s.u) u *= 1.0 + drift;
      EXPECT_EQ(decoder.decode(s.u, s.rcs).bits, pattern_bits(pattern))
          << "pattern " << pattern << " drift " << drift;
    }
  }
}
