#include "ros/tag/codec.hpp"

#include <algorithm>
#include <cmath>

#include "ros/common/expect.hpp"
#include "ros/dsp/fft.hpp"

namespace ros::tag {

using ros::dsp::RcsSpectrum;

SpatialDecoder::SpatialDecoder(DecoderConfig config)
    : config_(config),
      reference_layout_(TagLayout::all_ones(LayoutParams{
          config.n_bits, config.unit_spacing_lambda, config.design_hz,
          0.0})) {
  ROS_EXPECT(config.n_bits >= 1, "need at least one bit");
  ROS_EXPECT(config.threshold > 0.0, "threshold must be positive");
  ROS_EXPECT(config.slot_tolerance_lambda > 0.0,
             "slot tolerance must be positive");
}

double SpatialDecoder::slot_spacing_lambda(int k) const {
  return reference_layout_.slot_spacing_lambda(k);
}

bool SpatialDecoder::can_decode(std::span<const double> u) const {
  if (u.size() < 8) return false;
  std::vector<double> us(u.begin(), u.end());
  std::sort(us.begin(), us.end());
  us.erase(std::unique(us.begin(), us.end()), us.end());
  if (us.size() < 8) return false;
  const double span = us.back() - us.front();
  if (!(span > 0.0) || !std::isfinite(span)) return false;
  // Mirror rcs_spectrum's grid: n resampled points over `span` give a
  // top analysis spacing of 0.5 * (nfft/2 - 1) / (nfft * du). The
  // coding band is reachable only when that tops band_lo.
  const std::size_t n = config_.spectrum.resample_points > 0
                            ? config_.spectrum.resample_points
                            : 256;
  const std::size_t nfft = ros::dsp::next_pow2(
      n * std::max<std::size_t>(1, config_.spectrum.zero_pad_factor));
  const double du = span / static_cast<double>(n - 1);
  const double max_spacing =
      0.5 * static_cast<double>(nfft / 2 - 1) /
      (static_cast<double>(nfft) * du);
  const double band_lo = reference_layout_.coding_band_lambda().first -
                         config_.slot_tolerance_lambda;
  return max_spacing >= band_lo;
}

namespace {

/// Max spectrum amplitude within +/- tol of `center` (in lambdas).
double window_max(const RcsSpectrum& spec, double center, double tol) {
  double best = 0.0;
  for (std::size_t i = 0; i < spec.spacing_lambda.size(); ++i) {
    if (std::abs(spec.spacing_lambda[i] - center) <= tol) {
      best = std::max(best, spec.amplitude[i]);
    }
  }
  return best;
}

}  // namespace

DecodeResult SpatialDecoder::decode(std::span<const double> u,
                                    std::span<const double> rss_linear) const {
  DecodeResult out;
  out.spectrum = ros::dsp::rcs_spectrum(u, rss_linear, config_.spectrum);

  const auto band = reference_layout_.coding_band_lambda();
  const double band_lo = band.first - config_.slot_tolerance_lambda;
  const double band_hi = band.second + config_.slot_tolerance_lambda;

  // Coding-band RMS amplitude (the paper normalizes peaks by the overall
  // power within the coding band).
  double sum_sq = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < out.spectrum.spacing_lambda.size(); ++i) {
    const double s = out.spectrum.spacing_lambda[i];
    if (s >= band_lo && s <= band_hi) {
      sum_sq += out.spectrum.amplitude[i] * out.spectrum.amplitude[i];
      ++count;
    }
  }
  ROS_EXPECT(count > 0,
             "spectrum does not cover the coding band; widen the u window");
  out.band_rms = std::sqrt(sum_sq / static_cast<double>(count));
  out.threshold = config_.threshold;

  const double floor = out.band_rms > 0.0 ? out.band_rms : 1e-300;
  out.bits.resize(static_cast<std::size_t>(config_.n_bits));
  out.slot_amplitudes.resize(static_cast<std::size_t>(config_.n_bits));
  out.slot_modulation.resize(static_cast<std::size_t>(config_.n_bits));
  for (int k = 1; k <= config_.n_bits; ++k) {
    const double amp = window_max(out.spectrum, slot_spacing_lambda(k),
                                  config_.slot_tolerance_lambda);
    const double normalized = amp / floor;
    out.slot_amplitudes[static_cast<std::size_t>(k - 1)] = normalized;
    out.slot_modulation[static_cast<std::size_t>(k - 1)] = amp;
    out.bits[static_cast<std::size_t>(k - 1)] =
        normalized > config_.threshold && amp > config_.min_modulation;
  }
  return out;
}

}  // namespace ros::tag
