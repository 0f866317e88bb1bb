// Traced replay: the batch entry points rebuilt from public layer calls,
// in the same order and with the same per-frame RNG streams, so every
// replayed read equals its reference bit for bit. The replay runs at one
// thread; the frame loop is the serial order parallel_for degrades to.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "e2e.hpp"
#include "ros/common/random.hpp"
#include "ros/obs/json.hpp"
#include "ros/pipeline/features.hpp"
#include "ros/pipeline/pointcloud.hpp"
#include "ros/pipeline/rcs_sampler.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/pipeline/tag_detector.hpp"
#include "ros/radar/processing.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/scene/tracking.hpp"
#include "ros/tag/codebook.hpp"

namespace e2e {

namespace rp = ros::pipeline;
namespace rr = ros::radar;
namespace rs = ros::scene;

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayers> names = {
      "read",           "scene.track",      "scene.returns",
      "radar.synthesize", "radar.range_fft", "radar.detect",
      "pipeline.merge", "pipeline.cluster", "pipeline.sample",
      "pipeline.classify", "tag.decode"};
  return names[static_cast<std::size_t>(layer)];
}

std::array<double, kLayers> Tracer::seconds_by_layer() const {
  std::array<double, kLayers> out{};
  for (const Span& s : spans_) {
    out[static_cast<std::size_t>(s.layer)] +=
        std::chrono::duration<double>(s.t1 - s.t0).count();
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& process) const {
  if (spans_.empty()) return false;
  Clock::time_point origin = spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  ros::obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  w.begin_object()
      .key("name").value("process_name")
      .key("ph").value("M")
      .key("pid").value(1)
      .key("args").begin_object().key("name").value(process).end_object()
      .end_object();
  for (const Span& s : spans_) {
    w.begin_object()
        .key("name").value(layer_name(s.layer))
        .key("cat").value("e2e")
        .key("ph").value("X")
        .key("ts").value(us(s.t0))
        .key("dur").value(us(s.t1) - us(s.t0))
        .key("pid").value(1)
        .key("tid").value(1)
        .key("args").begin_object()
        .key("read").value(static_cast<std::uint64_t>(s.read))
        .end_object()
        .end_object();
  }
  w.end_array().end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& json = w.str();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

/// Frame-loop inputs shared by both modes.
struct FrameSetup {
  std::vector<rs::RadarPose> truth;
  std::vector<rs::RadarPose> estimated;
  rr::WaveformSynthesizer synth;
  double fc;
  double noise_w;
  rs::Vec2 road;

  FrameSetup(Tracer& tracer, const rs::StraightDrive& drive,
             const rp::InterrogatorConfig& config)
      : synth(config.chirp, config.array),
        fc(config.chirp.center_hz()),
        noise_w(rp::combined_noise_w(config)),
        road(drive.velocity() *
             (1.0 / std::max(drive.velocity().norm(), 1e-9))) {
    tracer.span(Layer::track, [&] {
      truth = drive.frames(config.chirp.frame_rate_hz /
                           static_cast<double>(config.frame_stride));
      estimated = rs::TrackingModel(config.tracking).estimate(truth);
    });
    tracer.work.frames += truth.size();
  }
};

void count_synthesis(Work& work, const rp::InterrogatorConfig& config,
                     const std::vector<rr::ScatterReturn>& returns,
                     double noise_w) {
  // Each return with positive amplitude adds one tone to every sample of
  // the Rx x chirp cube; noise, when on, touches every sample once.
  const auto cube_samples =
      static_cast<std::uint64_t>(config.array.n_rx) *
      static_cast<std::uint64_t>(config.chirp.n_samples);
  work.returns += returns.size();
  for (const rr::ScatterReturn& r : returns) {
    if (r.amplitude > 0.0) work.tone_samples += cube_samples;
  }
  if (noise_w > 0.0) work.noise_samples += cube_samples;
}

void count_fft(Work& work, const rr::RangeProfile& profile) {
  for (const auto& chan : profile.bins) work.fft_points += chan.size();
}

}  // namespace

rp::DecodeDriveResult replay_decode(Tracer& tracer, const rs::Scene& scene,
                                    const rs::StraightDrive& drive,
                                    const rs::Vec2& tag_position,
                                    const rp::InterrogatorConfig& config,
                                    bool keep_profiles) {
  rp::DecodeDriveResult out;
  tracer.read([&] {
    const FrameSetup fs(tracer, drive, config);
    std::vector<rs::ScatterPoint> points;
    std::vector<rr::ScatterReturn> returns;
    rr::FrameCube cube;
    std::vector<rr::RangeProfile> profiles(keep_profiles ? fs.truth.size()
                                                         : 1);
    for (std::size_t i = 0; i < fs.truth.size(); ++i) {
      rr::RangeProfile& profile = profiles[keep_profiles ? i : 0];
      ros::common::Rng rng(
          ros::common::derive_stream_seed(config.noise_seed, i));
      tracer.span(Layer::returns, [&] {
        scene.frame_returns_into(fs.truth[i], rr::TxMode::switched,
                                 config.array, config.budget, fs.fc, rng,
                                 points, returns);
      });
      tracer.span(Layer::synthesize, [&] {
        fs.synth.synthesize_into(returns, fs.noise_w, rng, cube);
      });
      tracer.span(Layer::range_fft, [&] {
        rr::range_fft_into(cube, config.chirp, ros::dsp::Window::hann,
                           profile);
      });
      count_synthesis(tracer.work, config, returns, fs.noise_w);
      count_fft(tracer.work, profile);
      tracer.span(Layer::sample, [&] {
        rp::RssSample s;
        if (rp::sample_rss_frame(profile, fs.estimated[i], tag_position,
                                 fs.road, config.array, fs.fc, i, s)) {
          out.samples.push_back(s);
        }
      });
    }
    tracer.work.samples += out.samples.size();
    tracer.span(Layer::decode, [&] {
      const auto series =
          rp::to_decoder_series(out.samples, rp::decode_max_abs_u(config));
      const ros::tag::TagDecoder decoder(config.decoder);
      if (decoder.can_decode(series.u)) {
        out.decode = decoder.decode(series.u, series.rss_linear);
      }
      ++tracer.work.decodes;
      tracer.work.series_len += series.u.size();
    });
    out.mean_rss_dbm = rp::mean_rss_dbm(out.samples);
    out.telemetry.n_points = out.samples.size();
  });
  return out;
}

rp::InterrogationReport replay_full(Tracer& tracer, const rs::Scene& scene,
                                    const rs::StraightDrive& drive,
                                    const rp::InterrogatorConfig& config) {
  rp::InterrogationReport report;
  tracer.read([&] {
    const FrameSetup fs(tracer, drive, config);
    const std::size_t n = fs.truth.size();
    report.n_frames = n;
    std::vector<rr::RangeProfile> normal(n);
    std::vector<rr::RangeProfile> switched(n);
    std::vector<rs::ScatterPoint> points;
    std::vector<rr::ScatterReturn> ret_normal;
    std::vector<rr::ScatterReturn> ret_switched;
    rr::FrameCube cube_normal;
    rr::FrameCube cube_switched;
    std::vector<rr::Detection> det_normal;
    std::vector<rr::Detection> det_switched;
    for (std::size_t i = 0; i < n; ++i) {
      // Draw order (returns normal, returns switched, noise normal, noise
      // switched) is FrameStage::run_full's.
      ros::common::Rng rng(
          ros::common::derive_stream_seed(config.noise_seed, i));
      tracer.span(Layer::returns, [&] {
        scene.frame_returns_into(fs.truth[i], rr::TxMode::normal,
                                 config.array, config.budget, fs.fc, rng,
                                 points, ret_normal);
        scene.frame_returns_into(fs.truth[i], rr::TxMode::switched,
                                 config.array, config.budget, fs.fc, rng,
                                 points, ret_switched);
      });
      tracer.span(Layer::synthesize, [&] {
        fs.synth.synthesize_into(ret_normal, fs.noise_w, rng, cube_normal);
        fs.synth.synthesize_into(ret_switched, fs.noise_w, rng,
                                 cube_switched);
      });
      tracer.span(Layer::range_fft, [&] {
        rr::range_fft_into(cube_normal, config.chirp,
                           ros::dsp::Window::hann, normal[i]);
        rr::range_fft_into(cube_switched, config.chirp,
                           ros::dsp::Window::hann, switched[i]);
      });
      tracer.span(Layer::detect, [&] {
        det_normal = rr::detect_points(normal[i], config.array, fs.fc,
                                       config.detector);
        det_switched = rr::detect_points(switched[i], config.array, fs.fc,
                                         config.detector);
      });
      tracer.span(Layer::merge, [&] {
        rp::accumulate(report.cloud, det_normal, fs.estimated[i], i);
        rp::accumulate(report.cloud, det_switched, fs.estimated[i], i);
      });
      Work& work = tracer.work;
      count_synthesis(work, config, ret_normal, fs.noise_w);
      count_synthesis(work, config, ret_switched, fs.noise_w);
      count_fft(work, normal[i]);
      count_fft(work, switched[i]);
      work.cfar_cells += normal[i].n_bins() + switched[i].n_bins();
      work.detections += det_normal.size() + det_switched.size();
    }
    tracer.work.cloud_points += report.cloud.points.size();

    tracer.span(Layer::cluster, [&] {
      report.clusters = rp::filter_dense(
          rp::extract_clusters(report.cloud, config.dbscan),
          config.tag_detector.min_density, config.tag_detector.min_points);
    });
    tracer.work.dense_clusters += report.clusters.size();

    // classify_and_decode_clusters, one layer call at a time.
    const double max_abs_u = rp::decode_max_abs_u(config);
    for (const rp::Cluster& cluster : report.clusters) {
      std::vector<rp::RssSample> samples_n;
      std::vector<rp::RssSample> samples_s;
      tracer.span(Layer::sample, [&] {
        samples_n = rp::sample_rss(normal, fs.estimated, cluster.centroid,
                                   fs.road, config.array, fs.fc);
        samples_s = rp::sample_rss(switched, fs.estimated, cluster.centroid,
                                   fs.road, config.array, fs.fc);
      });
      tracer.work.samples += samples_n.size() + samples_s.size();
      rp::TagCandidate cand;
      tracer.span(Layer::classify, [&] {
        cand = rp::classify_cluster(cluster, rp::mean_rss_dbm(samples_n),
                                    rp::mean_rss_dbm(samples_s),
                                    config.tag_detector);
      });
      report.candidates.push_back(cand);
      if (!cand.is_tag) continue;
      tracer.span(Layer::decode, [&] {
        const auto series = rp::to_decoder_series(samples_s, max_abs_u);
        const ros::tag::TagDecoder decoder(config.decoder);
        ++tracer.work.decodes;
        tracer.work.series_len += series.u.size();
        if (series.u.size() < 16 || !decoder.can_decode(series.u)) return;
        rp::TagReadout readout;
        readout.candidate = cand;
        readout.decode = decoder.decode(series.u, series.rss_linear);
        readout.samples = std::move(samples_s);
        report.tags.push_back(std::move(readout));
      });
    }
    tracer.work.candidates += report.candidates.size();
  });
  return report;
}

bool same_report(const rp::InterrogationReport& a,
                 const rp::InterrogationReport& b) {
  if (a.n_frames != b.n_frames ||
      a.cloud.points.size() != b.cloud.points.size() ||
      a.clusters.size() != b.clusters.size() ||
      a.candidates.size() != b.candidates.size() ||
      a.tags.size() != b.tags.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    if (a.clusters[c].point_indices != b.clusters[c].point_indices ||
        a.clusters[c].centroid.x != b.clusters[c].centroid.x ||
        a.clusters[c].centroid.y != b.clusters[c].centroid.y) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.candidates.size(); ++c) {
    if (a.candidates[c].is_tag != b.candidates[c].is_tag ||
        a.candidates[c].rss_loss_db != b.candidates[c].rss_loss_db) {
      return false;
    }
  }
  for (std::size_t t = 0; t < a.tags.size(); ++t) {
    if (a.tags[t].decode.bits != b.tags[t].decode.bits ||
        a.tags[t].decode.slot_amplitudes !=
            b.tags[t].decode.slot_amplitudes) {
      return false;
    }
  }
  return true;
}

}  // namespace e2e
