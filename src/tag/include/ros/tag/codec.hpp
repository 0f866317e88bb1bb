// Spatial-coding encoder/decoder (paper Sec. 5.2 and Sec. 6).
//
// Encoding is layout construction (TagLayout::from_bits). Decoding takes
// (u, RSS) samples gathered while driving past the tag, computes the RCS
// frequency spectrum, reads the amplitude at each coding slot, normalizes
// by the overall power in the coding band, and thresholds to bits.
#pragma once

#include <span>
#include <vector>

#include "ros/dsp/spectrum.hpp"
#include "ros/tag/layout.hpp"

namespace ros::tag {

struct DecoderConfig {
  /// Expected number of coding slots (must match the tag family).
  int n_bits = 4;
  /// Expected unit spacing delta_c in wavelengths.
  double unit_spacing_lambda = 1.5;
  double design_hz = 79e9;
  /// Peak search window around each slot, in wavelengths.
  double slot_tolerance_lambda = 0.4;
  /// Bit decision threshold: slot amplitude relative to the coding-band
  /// RMS amplitude. With envelope whitening, "1" peaks normalize to
  /// >= ~0.96 and "0" slots to <= ~0.65 across all bit patterns and
  /// realistic geometries; 0.8 splits them centrally.
  double threshold = 0.8;
  /// Absolute modulation-depth floor on the whitened-RCS spectrum: a
  /// present stack modulates the tag's RCS by >= 2/M relative to its
  /// mean, which appears as a spectral peak of ~1/M; thermal-noise
  /// maxima at usable RSS SNRs stay below ~0.04. A slot must clear BOTH
  /// thresholds, which keeps an all-zero (reference-only) tag or a noise
  /// floor from decoding as spurious ones.
  double min_modulation = 0.04;
  ros::dsp::SpectrumOptions spectrum{};
};

struct DecodeResult {
  std::vector<bool> bits;
  /// Per-slot amplitude normalized by coding-band RMS (the OOK decision
  /// variable; feed these to ros::dsp::ook_snr across repeated reads).
  std::vector<double> slot_amplitudes;
  /// Per-slot absolute spectral amplitude (modulation depth).
  std::vector<double> slot_modulation;
  double band_rms = 0.0;
  double threshold = 0.0;
  ros::dsp::RcsSpectrum spectrum;
};

class SpatialDecoder {
 public:
  explicit SpatialDecoder(DecoderConfig config = {});

  const DecoderConfig& config() const { return config_; }

  /// Decode from samples of u = sin(azimuth-from-normal) and the
  /// corresponding linear-scale RSS/RCS measurements.
  DecodeResult decode(std::span<const double> u,
                      std::span<const double> rss_linear) const;

  /// True when decode() would satisfy its preconditions for this u
  /// series: >= 8 distinct samples spanning a window wide enough that
  /// the RCS spectrum reaches the tag family's coding band. Callers
  /// (e.g. the pipeline) use this to degrade to an explicit no-read on
  /// short or narrow passes instead of throwing.
  bool can_decode(std::span<const double> u) const;

  /// Spacing [wavelengths] of coding slot `k` (1-based).
  double slot_spacing_lambda(int k) const;

 private:
  DecoderConfig config_;
  TagLayout reference_layout_;  ///< all-ones layout of the tag family
};

// bench/e2e compatibility. SpatialDecoder is the only decoder; the
// declarations below exist only because bench/e2e compiles against
// them: it includes ros/tag/codebook.hpp, names TagDecoder, and fills
// its `decoder_backend` provenance field (always "fft") through
// resolve_decoder_backend. Nothing in src/, tools/ or tests/ uses them;
// they go once bench/e2e stops naming them.
enum class DecoderBackend { auto_, fft };
inline const char* to_string(DecoderBackend backend) {
  return backend == DecoderBackend::fft ? "fft" : "auto";
}
inline DecoderBackend resolve_decoder_backend(DecoderBackend) {
  return DecoderBackend::fft;
}
using TagDecoder = SpatialDecoder;

}  // namespace ros::tag
