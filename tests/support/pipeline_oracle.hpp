// Serial reference implementation of a read, for the equivalence suites.
//
// Rebuilds both read modes from public layer calls only — no engine, no
// threading, no observability: drive.frames() + TrackingModel::estimate
// for the poses, then per frame frame_returns_into -> synthesize_into ->
// range_fft_into (-> detect_points -> accumulate) with the frame's
// counter-derived RNG stream, then sample_rss / extract_clusters /
// filter_dense / classify_cluster / to_decoder_series / SpatialDecoder over
// the retained profiles. Results must equal decode_drive() and
// Interrogator::run() exactly (operator==, no epsilon); see
// tests/support/stream_equality.hpp for the comparators.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/pipeline/features.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/pointcloud.hpp"
#include "ros/pipeline/rcs_sampler.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/pipeline/tag_detector.hpp"
#include "ros/radar/processing.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/scene/tracking.hpp"
#include "ros/tag/codec.hpp"

namespace ros::testoracle {

namespace detail {

namespace rp = ros::pipeline;
namespace rr = ros::radar;
namespace rs = ros::scene;

/// Per-read inputs shared by both modes.
struct Setup {
  std::vector<rs::RadarPose> truth;
  std::vector<rs::RadarPose> estimated;
  rr::WaveformSynthesizer synth;
  double fc;
  double noise_w;
  rs::Vec2 road;

  Setup(const rs::StraightDrive& drive, const rp::InterrogatorConfig& config)
      : truth(drive.frames(config.chirp.frame_rate_hz /
                           static_cast<double>(config.frame_stride))),
        estimated(rs::TrackingModel(config.tracking).estimate(truth)),
        synth(config.chirp, config.array),
        fc(config.chirp.center_hz()),
        noise_w(rp::combined_noise_w(config)),
        road(drive.velocity() *
             (1.0 / std::max(drive.velocity().norm(), 1e-9))) {}
};

}  // namespace detail

/// decode_drive() rebuilt serially. When `profiles` is non-null it
/// receives every frame's switched-pass range profile.
inline ros::pipeline::DecodeDriveResult decode_drive(
    const ros::scene::Scene& scene, const ros::scene::StraightDrive& drive,
    const ros::scene::Vec2& tag_position,
    const ros::pipeline::InterrogatorConfig& config,
    std::vector<ros::radar::RangeProfile>* profiles = nullptr) {
  namespace rp = ros::pipeline;
  namespace rr = ros::radar;
  const detail::Setup s(drive, config);
  std::vector<rr::RangeProfile> kept(s.truth.size());
  std::vector<ros::scene::ScatterPoint> points;
  std::vector<rr::ScatterReturn> returns;
  rr::FrameCube cube;
  for (std::size_t i = 0; i < s.truth.size(); ++i) {
    ros::common::Rng rng(
        ros::common::derive_stream_seed(config.noise_seed, i));
    scene.frame_returns_into(s.truth[i], rr::TxMode::switched, config.array,
                             config.budget, s.fc, rng, points, returns);
    s.synth.synthesize_into(returns, s.noise_w, rng, cube);
    rr::range_fft_into(cube, config.chirp, ros::dsp::Window::hann, kept[i]);
  }
  rp::DecodeDriveResult out;
  out.samples = rp::sample_rss(kept, s.estimated, tag_position, s.road,
                               config.array, s.fc);
  const auto series =
      rp::to_decoder_series(out.samples, rp::decode_max_abs_u(config));
  const ros::tag::SpatialDecoder decoder(config.decoder);
  if (decoder.can_decode(series.u)) {
    out.decode = decoder.decode(series.u, series.rss_linear);
  }
  out.mean_rss_dbm = rp::mean_rss_dbm(out.samples);
  out.telemetry.n_frames = s.truth.size();
  if (profiles != nullptr) *profiles = std::move(kept);
  return out;
}

/// Interrogator::run() rebuilt serially (full mode, whole drive).
inline ros::pipeline::InterrogationReport interrogate(
    const ros::scene::Scene& scene, const ros::scene::StraightDrive& drive,
    const ros::pipeline::InterrogatorConfig& config) {
  namespace rp = ros::pipeline;
  namespace rr = ros::radar;
  const detail::Setup s(drive, config);
  const std::size_t n = s.truth.size();
  rp::InterrogationReport report;
  report.n_frames = n;
  std::vector<rr::RangeProfile> normal(n);
  std::vector<rr::RangeProfile> switched(n);
  std::vector<ros::scene::ScatterPoint> points;
  std::vector<rr::ScatterReturn> ret_normal;
  std::vector<rr::ScatterReturn> ret_switched;
  rr::FrameCube cube_normal;
  rr::FrameCube cube_switched;
  for (std::size_t i = 0; i < n; ++i) {
    // Draw order: returns normal, returns switched, noise normal, noise
    // switched.
    ros::common::Rng rng(
        ros::common::derive_stream_seed(config.noise_seed, i));
    scene.frame_returns_into(s.truth[i], rr::TxMode::normal, config.array,
                             config.budget, s.fc, rng, points, ret_normal);
    scene.frame_returns_into(s.truth[i], rr::TxMode::switched,
                             config.array, config.budget, s.fc, rng, points,
                             ret_switched);
    s.synth.synthesize_into(ret_normal, s.noise_w, rng, cube_normal);
    s.synth.synthesize_into(ret_switched, s.noise_w, rng, cube_switched);
    rr::range_fft_into(cube_normal, config.chirp, ros::dsp::Window::hann,
                       normal[i]);
    rr::range_fft_into(cube_switched, config.chirp, ros::dsp::Window::hann,
                       switched[i]);
    rp::accumulate(report.cloud,
                   rr::detect_points(normal[i], config.array, s.fc,
                                     config.detector),
                   s.estimated[i], i);
    rp::accumulate(report.cloud,
                   rr::detect_points(switched[i], config.array, s.fc,
                                     config.detector),
                   s.estimated[i], i);
  }
  report.clusters = rp::filter_dense(
      rp::extract_clusters(report.cloud, config.dbscan),
      config.tag_detector.min_density, config.tag_detector.min_points);

  const double max_abs_u = rp::decode_max_abs_u(config);
  for (const rp::Cluster& cluster : report.clusters) {
    const auto samples_n = rp::sample_rss(normal, s.estimated,
                                          cluster.centroid, s.road,
                                          config.array, s.fc);
    auto samples_s = rp::sample_rss(switched, s.estimated, cluster.centroid,
                                    s.road, config.array, s.fc);
    const rp::TagCandidate cand = rp::classify_cluster(
        cluster, rp::mean_rss_dbm(samples_n), rp::mean_rss_dbm(samples_s),
        config.tag_detector);
    report.candidates.push_back(cand);
    if (!cand.is_tag) continue;
    const auto series = rp::to_decoder_series(samples_s, max_abs_u);
    const ros::tag::SpatialDecoder decoder(config.decoder);
    if (series.u.size() < 16 || !decoder.can_decode(series.u)) continue;
    rp::TagReadout readout;
    readout.candidate = cand;
    readout.decode = decoder.decode(series.u, series.rss_linear);
    readout.samples = std::move(samples_s);
    report.tags.push_back(std::move(readout));
  }
  return report;
}

}  // namespace ros::testoracle
