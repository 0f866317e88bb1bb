// FMCW baseband waveform synthesis (paper Eq. 2).
//
// Each reflector visible to the radar contributes a dechirped complex
// tone at its beat frequency, with a carrier phase set by the round-trip
// range and a per-Rx-antenna phase set by its angle of arrival. Thermal
// noise is added per sample, from a counter-keyed stream (one key per
// frame). This is the waveform-level substitute for
// the physical TI radar front end.
#pragma once

#include <span>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/common/units.hpp"
#include "ros/radar/arrays.hpp"
#include "ros/radar/chirp.hpp"

namespace ros::radar {

using ros::common::cplx;

/// One reflector's contribution to a frame.
struct ScatterReturn {
  /// Received field amplitude at an Rx port [sqrt(W)]: |a|^2 is the
  /// received power of this return.
  double amplitude = 0.0;
  /// Carrier phase of the return [rad] (scattering phase; the range
  /// phase is added by the synthesizer).
  double phase_rad = 0.0;
  double range_m = 1.0;
  double azimuth_rad = 0.0;      ///< AoA in the radar frame
  double doppler_hz = 0.0;       ///< Doppler shift (positive = closing)
};

/// Raw ADC frame: [rx antenna][sample].
using FrameCube = std::vector<std::vector<cplx>>;

class WaveformSynthesizer {
 public:
  WaveformSynthesizer(FmcwChirp chirp, RadarArray array);

  const FmcwChirp& chirp() const { return chirp_; }
  const RadarArray& array() const { return array_; }

  /// Synthesize one frame from the given returns, adding circularly
  /// symmetric Gaussian noise of `noise_power_w` per sample. Noise
  /// takes exactly one 64-bit draw from `rng` (the simd::gauss_acc
  /// key), and none when `noise_power_w` is zero.
  FrameCube synthesize(std::span<const ScatterReturn> returns,
                       double noise_power_w, ros::common::Rng& rng) const;

  /// Same, writing into `frame`. When `frame` already has the right
  /// shape (steady-state frame loops) no heap allocation happens; the
  /// cube is zeroed and refilled.
  void synthesize_into(std::span<const ScatterReturn> returns,
                       double noise_power_w, ros::common::Rng& rng,
                       FrameCube& frame) const;

 private:
  FmcwChirp chirp_;
  RadarArray array_;
};

}  // namespace ros::radar
