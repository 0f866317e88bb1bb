#include "ros/radar/waveform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "ros/common/angles.hpp"
#include "ros/common/mathx.hpp"
#include "ros/common/units.hpp"
#include "ros/dsp/fft.hpp"
#include "ros/radar/processing.hpp"
#include "ros/simd/simd.hpp"

namespace rr = ros::radar;
namespace rc = ros::common;

namespace {
rr::WaveformSynthesizer make_synth() {
  return {rr::FmcwChirp::ti_iwr1443(), rr::RadarArray::ti_iwr1443()};
}
}  // namespace

TEST(Waveform, FrameDimensions) {
  const auto synth = make_synth();
  rc::Rng rng(1);
  const auto frame = synth.synthesize({}, 0.0, rng);
  ASSERT_EQ(frame.size(), 8u);
  for (const auto& chan : frame) EXPECT_EQ(chan.size(), 256u);
}

TEST(Waveform, NoReturnsNoNoiseIsZero) {
  const auto synth = make_synth();
  rc::Rng rng(1);
  const auto frame = synth.synthesize({}, 0.0, rng);
  for (const auto& chan : frame) {
    for (const auto& v : chan) EXPECT_EQ(v, rc::cplx(0.0, 0.0));
  }
}

TEST(Waveform, ToneAppearsAtBeatFrequency) {
  const auto synth = make_synth();
  rr::ScatterReturn r;
  r.amplitude = 1.0;
  r.range_m = 3.0;
  rc::Rng rng(1);
  const auto frame = synth.synthesize(std::vector{r}, 0.0, rng);
  const auto spec = ros::dsp::fft(frame[0]);
  const auto mag = ros::dsp::magnitude(spec);
  const std::size_t peak = ros::common::argmax(mag);
  // Expected bin: f_beat / (fs / N).
  const double f_beat = synth.chirp().beat_frequency_hz(3.0);
  const double expected =
      f_beat / (synth.chirp().sample_rate_hz / 256.0);
  EXPECT_NEAR(static_cast<double>(peak), expected, 1.0);
}

TEST(Waveform, AmplitudePreserved) {
  const auto synth = make_synth();
  rr::ScatterReturn r;
  r.amplitude = 0.5;
  r.range_m = 2.0;
  rc::Rng rng(1);
  const auto frame = synth.synthesize(std::vector{r}, 0.0, rng);
  for (const auto& v : frame[0]) {
    EXPECT_NEAR(std::abs(v), 0.5, 1e-9);
  }
}

TEST(Waveform, InterAntennaPhaseMatchesAoA) {
  const auto synth = make_synth();
  rr::ScatterReturn r;
  r.amplitude = 1.0;
  r.range_m = 3.0;
  r.azimuth_rad = rc::deg_to_rad(20.0);
  rc::Rng rng(1);
  const auto frame = synth.synthesize(std::vector{r}, 0.0, rng);
  // Phase difference between adjacent antennas at sample 0:
  // 2 pi d sin(az) / lambda with d = lambda/2.
  const double expected = rc::kPi * std::sin(r.azimuth_rad);
  const double measured = std::arg(frame[1][0] / frame[0][0]);
  EXPECT_NEAR(measured, expected, 1e-6);
}

TEST(Waveform, DopplerShiftsBeat) {
  const auto synth = make_synth();
  rr::ScatterReturn stat;
  stat.amplitude = 1.0;
  stat.range_m = 3.0;
  rr::ScatterReturn moving = stat;
  moving.doppler_hz = 40e3;  // ~2 bins
  rc::Rng rng(1);
  const auto f1 = synth.synthesize(std::vector{stat}, 0.0, rng);
  const auto f2 = synth.synthesize(std::vector{moving}, 0.0, rng);
  const auto p1 = ros::common::argmax(
      ros::dsp::magnitude(ros::dsp::fft(f1[0])));
  const auto p2 = ros::common::argmax(
      ros::dsp::magnitude(ros::dsp::fft(f2[0])));
  EXPECT_EQ(p2, p1 + 2);
}

TEST(Waveform, NoiseAddsExpectedPower) {
  const auto synth = make_synth();
  rc::Rng rng(3);
  const double noise_p = 1e-8;
  const auto frame = synth.synthesize({}, noise_p, rng);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& chan : frame) {
    for (const auto& v : chan) {
      sum += std::norm(v);
      ++n;
    }
  }
  EXPECT_NEAR(sum / static_cast<double>(n), noise_p, 0.1 * noise_p);
}

TEST(Waveform, SuperpositionOfTwoReturns) {
  const auto synth = make_synth();
  rr::ScatterReturn a;
  a.amplitude = 1.0;
  a.range_m = 2.0;
  rr::ScatterReturn b;
  b.amplitude = 1.0;
  b.range_m = 5.0;
  rc::Rng rng(1);
  const auto frame = synth.synthesize(std::vector{a, b}, 0.0, rng);
  const auto mag = ros::dsp::magnitude(ros::dsp::fft(frame[0]));
  // Both tones present: two prominent peaks.
  const auto c = synth.chirp();
  const double bin_a = c.beat_frequency_hz(2.0) / (c.sample_rate_hz / 256);
  const double bin_b = c.beat_frequency_hz(5.0) / (c.sample_rate_hz / 256);
  EXPECT_GT(mag[static_cast<std::size_t>(std::lround(bin_a))], 100.0);
  EXPECT_GT(mag[static_cast<std::size_t>(std::lround(bin_b))], 100.0);
}

// --- synthesis contract ----------------------------------------------
//
// synthesize_into evaluates one tone per return and fans it into every
// Rx through the constant inter-antenna phasor e^{j*phi_ant(k)}. The
// per-(return, Rx) evaluation of Eq. 2 in libm stays the oracle: every
// sample lies within 1e-10 of the summed return amplitude, on every
// backend, and Rx 0, whose phasor is exactly 1, is bit-identical to it
// on the scalar backend.

namespace {

/// One libm tone for every (return, Rx) pair, the phases formed as the
/// synthesizer forms them.
rr::FrameCube per_rx_oracle(const rr::WaveformSynthesizer& synth,
                            const std::vector<rr::ScatterReturn>& returns) {
  const rr::FmcwChirp& chirp = synth.chirp();
  const auto n_rx = static_cast<std::size_t>(synth.array().n_rx);
  const auto n_s = static_cast<std::size_t>(chirp.n_samples);
  const double fc = chirp.center_hz();
  const double lambda = rc::kSpeedOfLight / fc;
  const double d_rx = synth.array().rx_spacing(fc);
  const double dt = 1.0 / chirp.sample_rate_hz;
  rr::FrameCube frame(n_rx, std::vector<rc::cplx>(n_s));
  for (const rr::ScatterReturn& r : returns) {
    if (r.amplitude <= 0.0) continue;
    const double f_beat = chirp.beat_frequency_hz(r.range_m) + r.doppler_hz;
    const double phi0 =
        -4.0 * rc::kPi * r.range_m * chirp.start_hz / rc::kSpeedOfLight +
        r.phase_rad;
    const double sin_az = std::sin(r.azimuth_rad);
    const double dphase = 2.0 * rc::kPi * f_beat * dt;
    for (std::size_t k = 0; k < n_rx; ++k) {
      const double phi_ant =
          2.0 * rc::kPi * static_cast<double>(k) * d_rx * sin_az / lambda;
      const double phase0 = phi0 + phi_ant;
      for (std::size_t i = 0; i < n_s; ++i) {
        const double p = phase0 + dphase * static_cast<double>(i);
        frame[k][i] += rc::cplx{r.amplitude * std::cos(p),
                                r.amplitude * std::sin(p)};
      }
    }
  }
  return frame;
}

/// n returns spread like a roadside frame: 1-12 m, +-2 kHz Doppler,
/// |azimuth| <= 1.2 rad, amplitudes over four decades. With n > 2 two
/// of them have amplitude <= 0; the synthesizer must skip them, and a
/// -0.3 return that leaked in would miss the bound by nine decades.
std::vector<rr::ScatterReturn> random_returns(rc::Rng& rng, std::size_t n) {
  std::vector<rr::ScatterReturn> out(n);
  for (auto& r : out) {
    r.amplitude = std::pow(10.0, rng.uniform(-6.0, -2.0));
    r.phase_rad = rng.uniform(-rc::kPi, rc::kPi);
    r.range_m = rng.uniform(1.0, 12.0);
    r.azimuth_rad = rng.uniform(-1.2, 1.2);
    r.doppler_hz = rng.uniform(-2e3, 2e3);
  }
  if (n > 2) {
    out[1].amplitude = 0.0;
    out[n - 1].amplitude = -0.3;
  }
  return out;
}

double amplitude_sum(const std::vector<rr::ScatterReturn>& returns) {
  double sum = 0.0;
  for (const auto& r : returns) sum += std::max(r.amplitude, 0.0);
  return sum;
}

bool bit_equal(rc::cplx a, rc::cplx b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct BackendGuard {
  ~BackendGuard() { ros::simd::reset_backend(); }
};

}  // namespace

TEST(WaveformSynthesis, FannedTonesMatchPerRxEvaluation) {
  const BackendGuard guard;
  const ros::simd::Backend native = ros::simd::available_backends().back();
  for (const ros::simd::Backend b : {ros::simd::Backend::scalar, native}) {
    ros::simd::set_backend(b);
    for (const int n_rx : {1, 8}) {
      rr::RadarArray array = rr::RadarArray::ti_iwr1443();
      array.n_rx = n_rx;
      const rr::WaveformSynthesizer synth(rr::FmcwChirp::ti_iwr1443(),
                                          array);
      rc::Rng rng(31 + static_cast<std::uint64_t>(n_rx));
      for (const std::size_t n_returns : {std::size_t{1}, std::size_t{23}}) {
        for (int trial = 0; trial < 8; ++trial) {
          const auto returns = random_returns(rng, n_returns);
          const auto frame = synth.synthesize(returns, 0.0, rng);
          const auto oracle = per_rx_oracle(synth, returns);
          const double tol = 1e-10 * amplitude_sum(returns);
          ASSERT_EQ(frame.size(), oracle.size());
          for (std::size_t k = 0; k < frame.size(); ++k) {
            for (std::size_t i = 0; i < frame[k].size(); ++i) {
              ASSERT_LE(std::abs(frame[k][i] - oracle[k][i]), tol)
                  << ros::simd::to_string(b) << " n_rx=" << n_rx
                  << " returns=" << n_returns << " k=" << k << " i=" << i;
            }
          }
          if (b == ros::simd::Backend::scalar) {
            for (std::size_t i = 0; i < frame[0].size(); ++i) {
              ASSERT_TRUE(bit_equal(frame[0][i], oracle[0][i]))
                  << "n_rx=" << n_rx << " returns=" << n_returns
                  << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// --- noise statistics ------------------------------------------------
//
// The noise contract is statistical, not a bit pattern: every moment
// below is checked over >= 1e5 samples against a 5-sigma band of its
// estimator, so they hold on every SIMD backend, whose bits differ.

namespace {

constexpr double kNoiseP = 2e-9;   // [W], a typical link-budget floor
constexpr std::size_t kFrames = 64;  // 64 x 8 Rx x 256 = 131072 samples

/// kFrames noise-only frames from one Rng, as a frame loop draws them.
std::vector<rr::FrameCube> noise_frames(std::uint64_t seed) {
  const auto synth = make_synth();
  rc::Rng rng(seed);
  std::vector<rr::FrameCube> frames(kFrames);
  for (auto& f : frames) synth.synthesize_into({}, kNoiseP, rng, f);
  return frames;
}

template <typename Fn>
void for_each_sample(const std::vector<rr::FrameCube>& frames, Fn fn) {
  for (const auto& f : frames) {
    for (const auto& chan : f) {
      for (const rc::cplx& z : chan) fn(z);
    }
  }
}

}  // namespace

TEST(WaveformNoise, ZeroMeanAndQuadratureVariance) {
  const auto frames = noise_frames(21);
  double n = 0.0;
  double sr = 0.0, si = 0.0, srr = 0.0, sii = 0.0;
  for_each_sample(frames, [&](rc::cplx z) {
    n += 1.0;
    sr += z.real();
    si += z.imag();
    srr += z.real() * z.real();
    sii += z.imag() * z.imag();
  });
  ASSERT_GE(n, 1e5);
  const double var = kNoiseP / 2.0;  // per quadrature
  // Mean: sigma/sqrt(n). Variance estimate: var * sqrt(2/n).
  const double mean_band = 5.0 * std::sqrt(var / n);
  EXPECT_NEAR(sr / n, 0.0, mean_band);
  EXPECT_NEAR(si / n, 0.0, mean_band);
  const double var_band = 5.0 * var * std::sqrt(2.0 / n);
  EXPECT_NEAR(srr / n, var, var_band);
  EXPECT_NEAR(sii / n, var, var_band);
}

TEST(WaveformNoise, Circular) {
  // E[z^2] = E[x^2 - y^2] + 2j E[xy] = 0; each part has variance
  // 4 var^2 per sample.
  const auto frames = noise_frames(22);
  double n = 0.0;
  rc::cplx s2{0.0, 0.0};
  for_each_sample(frames, [&](rc::cplx z) {
    n += 1.0;
    s2 += z * z;
  });
  const double var = kNoiseP / 2.0;
  const double band = 5.0 * 2.0 * var / std::sqrt(n);
  EXPECT_NEAR(s2.real() / n, 0.0, band);
  EXPECT_NEAR(s2.imag() / n, 0.0, band);
}

TEST(WaveformNoise, GaussianTails) {
  // Excess kurtosis of each quadrature: 0 for a Gaussian, with
  // standard error sqrt(24/n). A rejection-free generator with a bad
  // log or radius would show up here first.
  const auto frames = noise_frames(23);
  double n = 0.0;
  double s2r = 0.0, s4r = 0.0, s2i = 0.0, s4i = 0.0;
  for_each_sample(frames, [&](rc::cplx z) {
    n += 1.0;
    const double xr = z.real() * z.real();
    const double xi = z.imag() * z.imag();
    s2r += xr;
    s4r += xr * xr;
    s2i += xi;
    s4i += xi * xi;
  });
  const double band = 5.0 * std::sqrt(24.0 / n);
  EXPECT_NEAR((s4r / n) / ((s2r / n) * (s2r / n)) - 3.0, 0.0, band);
  EXPECT_NEAR((s4i / n) / ((s2i / n) * (s2i / n)) - 3.0, 0.0, band);
}

TEST(WaveformNoise, RxChannelsUncorrelated) {
  // rho = E[z_a conj(z_b)] / P for every Rx pair; each component of the
  // estimate has standard error sqrt(1/(2m)) over m sample pairs.
  const auto frames = noise_frames(24);
  const std::size_t n_rx = frames[0].size();
  const std::size_t n_s = frames[0][0].size();
  const double m = static_cast<double>(kFrames * n_s);
  const double band = 5.0 * std::sqrt(1.0 / (2.0 * m));
  for (std::size_t a = 0; a < n_rx; ++a) {
    for (std::size_t b = a + 1; b < n_rx; ++b) {
      rc::cplx acc{0.0, 0.0};
      for (const auto& f : frames) {
        for (std::size_t i = 0; i < n_s; ++i) {
          acc += f[a][i] * std::conj(f[b][i]);
        }
      }
      const rc::cplx rho = acc / (m * kNoiseP);
      EXPECT_NEAR(rho.real(), 0.0, band) << "rx " << a << "," << b;
      EXPECT_NEAR(rho.imag(), 0.0, band) << "rx " << a << "," << b;
    }
  }
  // Each Rx draws its own counters: no sample of a frame repeats
  // anywhere else in it (overlapping counter ranges would).
  std::vector<double> re;
  for (const auto& chan : frames[0]) {
    for (const rc::cplx& z : chan) re.push_back(z.real());
  }
  std::sort(re.begin(), re.end());
  EXPECT_EQ(std::adjacent_find(re.begin(), re.end()), re.end());
}

TEST(WaveformNoise, FlatRangeSpectrum) {
  // White noise stays white through the windowed range FFT: every bin's
  // mean power, over kFrames x 8 Rx exponential variates, sits within
  // 5/sqrt(m) (relative) of the all-bin mean.
  const auto frames = noise_frames(25);
  const auto synth = make_synth();
  rr::RangeProfile profile;
  std::vector<double> bin_power;
  double m = 0.0;
  for (const auto& f : frames) {
    rr::range_fft_into(f, synth.chirp(), ros::dsp::Window::hann, profile);
    bin_power.resize(profile.n_bins(), 0.0);
    for (const auto& chan : profile.bins) {
      for (std::size_t b = 0; b < chan.size(); ++b) {
        bin_power[b] += std::norm(chan[b]);
      }
      m += 1.0;
    }
  }
  ASSERT_FALSE(bin_power.empty());
  double mean = 0.0;
  for (double p : bin_power) mean += p;
  mean /= static_cast<double>(bin_power.size());
  ASSERT_GT(mean, 0.0);
  const double band = 5.0 / std::sqrt(m);
  for (std::size_t b = 0; b < bin_power.size(); ++b) {
    EXPECT_NEAR(bin_power[b] / mean, 1.0, band) << "bin " << b;
  }
}

TEST(WaveformNoise, RngDrawsOneKeyOrNothing) {
  const auto synth = make_synth();
  rr::ScatterReturn r;
  r.amplitude = 1e-3;
  r.range_m = 3.0;
  const std::vector<rr::ScatterReturn> returns{r};

  // Zero power: the noise-free tone, and the Rng is untouched.
  rc::Rng quiet(9);
  rr::FrameCube frame = synth.synthesize({}, 0.0, quiet);
  for (const auto& chan : frame) {
    for (const auto& v : chan) EXPECT_EQ(v, rc::cplx(0.0, 0.0));
  }
  const auto tone = synth.synthesize(returns, 0.0, quiet);
  rc::Rng fresh(9);
  EXPECT_EQ(quiet.engine()(), fresh.engine()());

  // Positive power: exactly one 64-bit draw per frame.
  rc::Rng noisy(9);
  (void)synth.synthesize(returns, kNoiseP, noisy);
  rc::Rng skip(9);
  (void)skip.engine()();
  EXPECT_EQ(noisy.engine()(), skip.engine()());

  // And the noise adds onto the tone rather than replacing it.
  rc::Rng again(9);
  const auto noisy_frame = synth.synthesize(returns, kNoiseP, again);
  double resid = 0.0;
  for (std::size_t k = 0; k < tone.size(); ++k) {
    for (std::size_t i = 0; i < tone[k].size(); ++i) {
      resid += std::norm(noisy_frame[k][i] - tone[k][i]);
    }
  }
  const double per_sample =
      resid / static_cast<double>(tone.size() * tone[0].size());
  EXPECT_NEAR(per_sample, kNoiseP, 0.25 * kNoiseP);
}

TEST(Waveform, InvalidNoiseThrows) {
  const auto synth = make_synth();
  rc::Rng rng(1);
  EXPECT_THROW(synth.synthesize({}, -1.0, rng), std::invalid_argument);
}
