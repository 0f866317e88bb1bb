#include "ros/radar/waveform.hpp"

#include <cmath>

#include "ros/common/expect.hpp"
#include "ros/exec/arena.hpp"
#include "ros/simd/simd.hpp"

namespace ros::radar {

using namespace ros::common;

WaveformSynthesizer::WaveformSynthesizer(FmcwChirp chirp, RadarArray array)
    : chirp_(chirp), array_(array) {
  ROS_EXPECT(chirp.n_samples > 0, "need at least one sample");
  ROS_EXPECT(array.n_rx > 0, "need at least one Rx antenna");
}

FrameCube WaveformSynthesizer::synthesize(
    std::span<const ScatterReturn> returns, double noise_power_w,
    Rng& rng) const {
  FrameCube frame;
  synthesize_into(returns, noise_power_w, rng, frame);
  return frame;
}

void WaveformSynthesizer::synthesize_into(
    std::span<const ScatterReturn> returns, double noise_power_w,
    Rng& rng, FrameCube& frame) const {
  ROS_EXPECT(noise_power_w >= 0.0, "noise power must be non-negative");
  const auto n_rx = static_cast<std::size_t>(array_.n_rx);
  const auto n_s = static_cast<std::size_t>(chirp_.n_samples);
  // Reuse the caller's storage when the shape already matches (the
  // frame-loop case); only a cold first call allocates.
  if (frame.size() != n_rx) frame.resize(n_rx);
  for (auto& chan : frame) chan.assign(n_s, cplx{0.0, 0.0});

  const double fc = chirp_.center_hz();
  const double lambda = kSpeedOfLight / fc;
  const double d_rx = array_.rx_spacing(fc);
  const double dt = 1.0 / chirp_.sample_rate_hz;
  const auto& tone = ros::simd::ops().tone_fan_acc;

  // Channel pointers and per-Rx phasors live in the thread's arena, so
  // a steady-state frame stays off the heap.
  auto& arena = ros::exec::Arena::thread_local_arena();
  ros::exec::Arena::Scope scope(arena);
  auto chans = arena.alloc_span<cplx*>(n_rx);
  auto rot = arena.alloc_span<cplx>(n_rx);
  for (std::size_t k = 0; k < n_rx; ++k) chans[k] = frame[k].data();

  for (const ScatterReturn& r : returns) {
    if (r.amplitude <= 0.0) continue;
    const double f_beat = chirp_.beat_frequency_hz(r.range_m) + r.doppler_hz;
    // Carrier phase from the round trip at the chirp start frequency
    // (Eq. 2's first phase term), plus the reflector's own phase.
    const double phi0 =
        -4.0 * kPi * r.range_m * chirp_.start_hz / kSpeedOfLight +
        r.phase_rad;
    const double sin_az = std::sin(r.azimuth_rad);
    // Eq. 2's second phase term, the inter-antenna delay, is constant
    // over the chirp: Rx k's tone is Rx 0's times e^{j*phi_ant(k)}, so
    // the tone is evaluated once per return and fanned to every Rx.
    // rot[0] is exactly 1, so Rx 0 gets the tone's own bits.
    for (std::size_t k = 0; k < n_rx; ++k) {
      const double phi_ant =
          2.0 * kPi * static_cast<double>(k) * d_rx * sin_az / lambda;
      rot[k] = {std::cos(phi_ant), std::sin(phi_ant)};
    }
    // Per-sample phase advances linearly.
    const double dphase = 2.0 * kPi * f_beat * dt;
    tone(chans.data(), rot.data(), n_rx, r.amplitude, phi0, dphase, n_s);
  }

  if (noise_power_w > 0.0) {
    // One key per frame from the caller's stream. A sample takes two
    // counters, so Rx k owns counters [2k*n_s, 2(k+1)*n_s) of the key.
    const std::uint64_t key = rng.engine()();
    const auto& gauss = ros::simd::ops().gauss_acc;
    for (std::size_t k = 0; k < n_rx; ++k) {
      gauss(frame[k].data(), noise_power_w, key, 2 * k * n_s, n_s);
    }
  }
}

}  // namespace ros::radar
