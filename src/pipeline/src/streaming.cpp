#include "ros/pipeline/streaming.hpp"

#include <cmath>
#include <utility>

#include "ros/common/expect.hpp"
#include "ros/common/units.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/alloc.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/tag/codec.hpp"

namespace ros::pipeline {

using namespace ros::common;
using ros::scene::RadarPose;
using ros::scene::Vec2;

namespace {

constexpr const char* kLog = "pipeline";

/// to_decoder_series' default RSS floor, mirrored so the incremental
/// series filter is bit-identical to the batch filter.
constexpr double kMinRssDbm = -1e9;

Vec2 road_of(const ros::scene::StraightDrive& drive) {
  return drive.velocity() * (1.0 / std::max(drive.velocity().norm(), 1e-9));
}

/// Names of one read mode — the probe kind and every mode-level span,
/// histogram, and gauge the read records — spelled out so recording them
/// never builds a string; plus the layers the mode runs, in layer order.
struct ModeNames {
  const char* kind;
  const char* run;
  const char* run_ms;
  const char* frames;
  const char* frame;
  const char* frame_ms;
  const char* rng_stream;
  const char* allocs_per_frame;
  std::span<const Layer> layers;
};

constexpr Layer kDecodeLayers[] = {Layer::track,      Layer::returns,
                                   Layer::synthesize, Layer::range_fft,
                                   Layer::sample,     Layer::decode};
constexpr Layer kFullLayers[] = {
    Layer::track,   Layer::returns, Layer::synthesize, Layer::range_fft,
    Layer::detect,  Layer::merge,   Layer::cluster,    Layer::sample,
    Layer::classify, Layer::decode};

constexpr ModeNames kDecodeNames{
    "decode_drive",            "decode_drive.run",
    "decode_drive.run.ms",     "decode_drive.frames",
    "decode_drive.frame",      "decode_drive.frame.ms",
    "decode_drive.rng_stream", "decode_drive.frame_loop.allocs_per_frame",
    kDecodeLayers};
constexpr ModeNames kFullNames{
    "interrogate",             "interrogate.run",
    "interrogate.run.ms",      "interrogate.frames",
    "interrogate.frame",       "interrogate.frame.ms",
    "interrogate.rng_stream",  "interrogate.frame_loop.allocs_per_frame",
    kFullLayers};

}  // namespace

StreamingInterrogator::StreamingInterrogator(
    const InterrogatorConfig& config, const ros::scene::Scene& scene,
    const ros::scene::StraightDrive& drive, const Vec2& tag_position,
    StreamingOptions opts)
    : config_(config),
      scene_(&scene),
      drive_(&drive),
      opts_(opts),
      decode_mode_(true),
      tag_position_(tag_position),
      stage_(config_, scene),
      rate_hz_(config_.chirp.frame_rate_hz /
               static_cast<double>(config_.frame_stride)),
      tracker_(config_.tracking) {
  validate(config_);
  obs_session_begin();
  n_frames_ = drive.frame_count(rate_hz_);
  road_ = road_of(drive);
  max_abs_u_ = decode_max_abs_u(config_);
  if (opts_.retain_samples) samples_.reserve(n_frames_);
  series_.reserve(n_frames_);
  begin_read();
}

StreamingInterrogator::StreamingInterrogator(
    const InterrogatorConfig& config, const ros::scene::Scene& scene,
    const ros::scene::StraightDrive& drive)
    : config_(config),
      scene_(&scene),
      drive_(&drive),
      decode_mode_(false),
      stage_(config_, scene),
      rate_hz_(config_.chirp.frame_rate_hz /
               static_cast<double>(config_.frame_stride)),
      tracker_(config_.tracking) {
  validate(config_);
  obs_session_begin();
  n_frames_ = drive.frame_count(rate_hz_);
  road_ = road_of(drive);
  max_abs_u_ = decode_max_abs_u(config_);
  begin_read();
  ROS_LOG_INFO(kLog, "interrogation started",
               ros::obs::kv("frames", n_frames_),
               ros::obs::kv("frame_stride", config_.frame_stride),
               ros::obs::kv("objects", scene.objects().size()));
}

void StreamingInterrogator::begin_read() {
  const ModeNames& names = decode_mode_ ? kDecodeNames : kFullNames;
  auto& reg = ros::obs::MetricsRegistry::global();
  layer_hist_ = layer_histograms();
  frame_hist_ = &reg.histogram(names.frame_ms);
  layer_ms_ = {};
  run_timer_.emplace(names.run, "pipeline", &reg.histogram(names.run_ms));
  namespace probe = ros::obs::probe;
  probing_ = probe::armed() &&
             probe::begin_read(names.kind, config_.noise_seed,
                               config_digest(config_));
  if (!probing_) return;
  annotate_probe_runtime();
  probe::annotate("frame_stride", static_cast<double>(config_.frame_stride));
  probe::annotate("decode_fov_rad", config_.decode_fov_rad);
  probe::annotate("extra_noise_dbm", config_.extra_noise_dbm);
  if (decode_mode_) {
    probe::annotate("tag_x", tag_position_.x);
    probe::annotate("tag_y", tag_position_.y);
    range_capture_.begin(n_frames_, config_.noise_seed);
  }
}

void StreamingInterrogator::rebind(const InterrogatorConfig& config,
                                   const ros::scene::Scene& scene,
                                   const ros::scene::StraightDrive& drive,
                                   const Vec2& tag_position,
                                   StreamingOptions opts) {
  ROS_EXPECT(decode_mode_, "rebind supports decode mode only");
  if (probing_ && !finalized_) {
    ros::obs::probe::abort_read("stream rebound before finalize");
    probing_ = false;
  }
  validate(config);
  // Copy-assign: a same-shape config reuses existing capacity, so the
  // hot corridor case (per-session configs differing only in seed)
  // stays allocation-free.
  config_ = config;
  scene_ = &scene;
  drive_ = &drive;
  opts_ = opts;
  tag_position_ = tag_position;
  stage_.rebind(config_, scene);
  rate_hz_ = config_.chirp.frame_rate_hz /
             static_cast<double>(config_.frame_stride);
  n_frames_ = drive.frame_count(rate_hz_);
  road_ = road_of(drive);
  max_abs_u_ = decode_max_abs_u(config_);
  tracker_ = ros::scene::TrackingEstimator(config_.tracking);
  consumed_ = 0;
  finalized_ = false;
  samples_.clear();
  if (opts_.retain_samples) samples_.reserve(n_frames_);
  sum_rss_w_ = 0.0;
  n_samples_ = 0;
  series_.clear();
  series_.reserve(n_frames_);
  begin_read();
}

StreamingInterrogator::~StreamingInterrogator() {
  if (probing_ && !finalized_) {
    ros::obs::probe::abort_read("stream abandoned before finalize");
  }
}

FramePacket StreamingInterrogator::synthesize(std::size_t i) const {
  FramePacket out;
  synthesize_into(i, out);
  return out;
}

void StreamingInterrogator::synthesize_into(std::size_t i,
                                            FramePacket& out) const {
  ROS_EXPECT(i < n_frames_, "frame index beyond the stream");
  out.index = i;
  // The same ground-truth pose expression as StraightDrive::frames().
  const RadarPose pose =
      drive_->pose_at(static_cast<double>(i) / rate_hz_);
  out.ms = {};
  if (decode_mode_) {
    stage_.run_decode(pose, i, out.profile, out.ms);
  } else {
    stage_.run_full(pose, i, out.full, out.ms);
  }
}

void StreamingInterrogator::consume(FramePacket&& packet) {
  ROS_EXPECT(!finalized_, "stream already finalized");
  ROS_EXPECT(packet.index == consumed_,
             "frames must be consumed in order");
  const std::size_t i = packet.index;
  LayerMs& ms = packet.ms;
  auto t_track = layer_span(Layer::track, layer_hist_);
  const RadarPose truth =
      drive_->pose_at(static_cast<double>(i) / rate_hz_);
  const RadarPose est = tracker_.next(truth);
  ms[Layer::track] = t_track.stop();

  if (decode_mode_) {
    auto t_sample = layer_span(Layer::sample, layer_hist_);
    if (probing_) range_capture_.add(i, packet.profile);
    RssSample s;
    const bool sampled = sample_rss_frame(packet.profile, est, tag_position_,
                                          road_, config_.array, stage_.fc(),
                                          i, s);
    if (sampled) {
      if (opts_.retain_samples) samples_.push_back(s);
      sum_rss_w_ += s.rss_w;
      ++n_samples_;
      // Mirror to_decoder_series' filter order exactly: FoV cut first,
      // then the RSS floor.
      if (!(std::abs(s.u) > max_abs_u_) && !(s.rss_dbm < kMinRssDbm)) {
        series_.push(s.u, s.rss_w);
      }
    }
    ms[Layer::sample] = t_sample.stop();
  } else {
    auto t_merge = layer_span(Layer::merge, layer_hist_);
    estimated_.push_back(est);
    accumulate(cloud_, packet.full.det_normal, est, i);
    accumulate(cloud_, packet.full.det_switched, est, i);
    profiles_normal_.push_back(std::move(packet.full.normal));
    profiles_switched_.push_back(std::move(packet.full.switched));
    ms[Layer::merge] = t_merge.stop();
  }
  // The frame stage's spans (returns .. detect) observe no histogram;
  // theirs are fed here.
  const ModeNames& names = decode_mode_ ? kDecodeNames : kFullNames;
  for (const Layer layer : names.layers) {
    if (layer >= Layer::returns && layer <= Layer::detect) {
      layer_hist_[static_cast<std::size_t>(layer)]->observe(ms[layer]);
    }
  }
  frame_hist_->observe(ms.sum());
  layer_ms_ += ms;
  ++consumed_;
}

void StreamingInterrogator::book_stages(PipelineTelemetry& tel) const {
  const ModeNames& names = decode_mode_ ? kDecodeNames : kFullNames;
  for (const Layer layer : names.layers) {
    tel.add_stage(layer_name(layer), layer_ms_[layer]);
  }
}

void StreamingInterrogator::push_frame(std::size_t i) {
  // One packet per thread, shared by every engine that thread drives:
  // decode mode's consume() only reads the profile, so its buffers are
  // reused warm from frame to frame. Full mode moves the profiles into
  // the read's retained lists, and the next frame allocates them afresh.
  thread_local FramePacket packet;
  synthesize_into(i, packet);
  consume(std::move(packet));
}

void StreamingInterrogator::push_all() {
  const ModeNames& names = decode_mode_ ? kDecodeNames : kFullNames;
  const std::size_t first = consumed_;
  auto& flight = ros::obs::FlightRecorder::global();
  const std::uint32_t frame_id = flight.intern(names.frame);
  const std::uint32_t rng_id = flight.intern(names.rng_stream);

  // One mode-level span for the whole frame loop, around the frames'
  // layer spans.
  ros::obs::ScopedTimer frames_timer(names.frames, "pipeline");
  const auto allocs_before = ros::obs::alloc_counters();
  std::vector<FramePacket> block(
      std::min(kBlockFrames, n_frames_ - first));
  for (std::size_t base = first; base < n_frames_; base += block.size()) {
    const std::size_t count = std::min(block.size(), n_frames_ - base);
    ros::exec::parallel_for(0, count, [&](std::size_t k) {
      const std::size_t i = base + k;
      // One sampling decision covers the frame's begin/seed/end records
      // so sampled frames land complete in the flight ring.
      const bool sampled = flight.enabled() && flight.should_sample();
      if (sampled) {
        flight.record(ros::obs::FlightKind::frame_begin, frame_id, i);
        flight.record(ros::obs::FlightKind::rng_seed, rng_id,
                      stage_.stream_seed(i));
      }
      synthesize_into(i, block[k]);
      if (sampled) {
        flight.record(ros::obs::FlightKind::frame_end, frame_id, i);
      }
    });
    // In-order consume on the calling thread: the state machine's
    // bit-determinism needs frame order, not a particular schedule.
    for (std::size_t k = 0; k < count; ++k) consume(std::move(block[k]));
  }
  record_frame_loop_allocs(names.allocs_per_frame, allocs_before,
                           n_frames_ - first);
  record_runtime_introspection();
}

DecodeDriveResult StreamingInterrogator::finalize_decode() {
  ROS_EXPECT(decode_mode_, "finalize_decode requires decode mode");
  ROS_EXPECT(!finalized_, "stream already finalized");
  finalized_ = true;
  namespace probe = ros::obs::probe;
  auto& reg = ros::obs::MetricsRegistry::global();
  DecodeDriveResult out;
  PipelineTelemetry& tel = out.telemetry;
  tel.n_frames = consumed_;

  out.samples = std::move(samples_);
  tel.n_points = n_samples_;
  if (probe::capturing()) {
    probe::funnel("synthesized", consumed_ > 0,
                  std::to_string(consumed_) + " frames");
    probe::stage_artifact("range_fft", range_capture_.json());
    probe::funnel("detected", n_samples_ > 0,
                  std::to_string(n_samples_) +
                      " spotlight RSS samples");
    probe::stage_artifact("samples", samples_json(out.samples));
  }

  bool aperture_ok = false;
  ros::dsp::SpectrumTap spectrum_tap;
  {
    auto t_decode = layer_span(Layer::decode, layer_hist_);
    // When capturing, route the decoder's spectrum computation through
    // a forensic tap (pure observation: the decode itself is
    // bit-identical with or without it).
    ros::tag::DecoderConfig decoder_config = config_.decoder;
    if (probe::capturing()) decoder_config.spectrum.tap = &spectrum_tap;
    const ros::tag::SpatialDecoder decoder(decoder_config);
    aperture_ok = decoder.can_decode(series_.u());
    if (aperture_ok) {
      out.decode = decoder.decode(series_.u(), series_.rss_linear());
    } else {
      // Short or narrow pass (e.g. a tiny decode FoV leaves < 8 usable
      // samples): report an explicit no-read instead of violating the
      // spectrum preconditions. bits/slot vectors stay empty.
      ROS_LOG_WARN(kLog,
                   "decode drive: series too short or narrow for the "
                   "coding band; reporting no-read",
                   ros::obs::kv("samples", series_.size()));
      reg.counter("pipeline.decode_no_read").inc();
    }
    if (probe::capturing()) {
      probe::funnel("aperture", aperture_ok,
                    aperture_ok
                        ? "u span reaches the coding band"
                        : "series too short or narrow for the coding "
                          "band (" +
                              std::to_string(series_.size()) +
                              " usable samples)");
    }
    layer_ms_[Layer::decode] += t_decode.stop();
  }

  out.mean_rss_dbm =
      watt_to_dbm(sum_rss_w_ / std::max<std::size_t>(1, n_samples_));

  tel.n_tags = 1;  // decode-only mode reads exactly the targeted tag
  tel.n_clusters = 1;
  tel.n_candidates = 1;
  tel.tags.push_back(decode_telemetry(out.decode, out.samples));
  book_stages(tel);
  tel.total_ms = run_timer_->stop();
  reg.counter("pipeline.decode_drives").inc();
  const bool no_read = out.decode.bits.empty();
  record_read_funnel(n_samples_ > 0, n_samples_ > 0, aperture_ok,
                     !no_read);
  if (probe::capturing()) {
    probe::funnel("decoded", !no_read,
                  no_read ? "no-read: decoder produced no bits"
                          : std::to_string(out.decode.bits.size()) +
                                " bits decoded");
    probe::decoded_bits(out.decode.bits);
    probe::annotate("mean_rss_dbm", out.mean_rss_dbm);
    if (!no_read) {
      probe::stage_artifact("coding_spectrum",
                            spectrum_json(out.decode.spectrum));
      probe::stage_artifact("spectrum_intermediates",
                            spectrum_tap_json(spectrum_tap));
      probe::stage_artifact(
          "bit_margins", bit_margins_json(out.decode, config_.decoder));
    }
    probe::end_read(no_read ? "no_read" : "");
  }
  ROS_LOG_DEBUG(kLog, "decode drive finished",
                ros::obs::kv("frames", consumed_),
                ros::obs::kv("samples", n_samples_),
                ros::obs::kv("mean_rss_dbm", out.mean_rss_dbm),
                ros::obs::kv("total_ms", tel.total_ms));
  return out;
}

InterrogationReport StreamingInterrogator::finalize_report() {
  ROS_EXPECT(!decode_mode_, "finalize_report requires full mode");
  ROS_EXPECT(!finalized_, "stream already finalized");
  finalized_ = true;
  namespace probe = ros::obs::probe;
  InterrogationReport report;
  PipelineTelemetry& tel = report.telemetry;
  report.n_frames = consumed_;
  tel.n_frames = consumed_;

  // The stream is over: the report takes the merged cloud.
  report.cloud = std::move(cloud_);
  tel.n_points = report.cloud.points.size();
  if (probe::capturing()) {
    probe::funnel("synthesized", consumed_ > 0,
                  std::to_string(consumed_) + " frames");
    probe::funnel("detected", !report.cloud.points.empty(),
                  std::to_string(report.cloud.points.size()) +
                      " point-cloud points");
    probe::stage_artifact(
        "range_fft_normal",
        range_profiles_json(profiles_normal_, config_.noise_seed));
    probe::stage_artifact(
        "range_fft_switched",
        range_profiles_json(profiles_switched_, config_.noise_seed));
    probe::stage_artifact("pointcloud", pointcloud_json(report.cloud));
  }

  {
    auto t_cluster = layer_span(Layer::cluster, layer_hist_);
    report.clusters = filter_dense(
        extract_clusters(report.cloud, config_.dbscan),
        config_.tag_detector.min_density,
        config_.tag_detector.min_points);
    layer_ms_[Layer::cluster] += t_cluster.stop();
  }
  tel.n_clusters = report.clusters.size();
  ROS_LOG_DEBUG(kLog, "point cloud clustered",
                ros::obs::kv("points", tel.n_points),
                ros::obs::kv("dense_clusters", tel.n_clusters));
  if (probe::capturing()) {
    probe::funnel("clustered", !report.clusters.empty(),
                  std::to_string(report.clusters.size()) +
                      " dense clusters");
    probe::stage_artifact("clusters", clusters_json(report.clusters));
  }

  const bool aperture_any = classify_and_decode_clusters(
      config_, profiles_normal_, profiles_switched_, estimated_, road_,
      max_abs_u_, layer_hist_, report, layer_ms_);
  tel.n_candidates = report.candidates.size();
  tel.n_tags = report.tags.size();
  book_stages(tel);
  tel.total_ms = run_timer_->stop();
  record_funnel(tel);
  record_read_funnel(!report.cloud.points.empty(),
                     !report.clusters.empty(), aperture_any,
                     !report.tags.empty());
  if (probe::capturing()) {
    bool any_tag = false;
    for (const auto& c : report.candidates) any_tag |= c.is_tag;
    probe::stage_artifact("candidates",
                          candidates_json(report.candidates));
    probe::funnel("candidate", any_tag,
                  std::to_string(report.candidates.size()) +
                      " classified, " +
                      (any_tag ? "tag candidate present"
                               : "no cluster classified as tag"));
    probe::funnel("aperture", aperture_any,
                  aperture_any ? "at least one candidate series reached "
                                 "the coding band"
                               : "no candidate series wide enough");
    probe::funnel("decoded", !report.tags.empty(),
                  std::to_string(report.tags.size()) + " tags decoded");
    if (!report.tags.empty()) {
      probe::decoded_bits(report.tags.front().decode.bits);
    } else {
      probe::decoded_bits({});
    }
    probe::end_read(report.tags.empty() ? "no_read" : "");
  }
  ROS_LOG_INFO(kLog, "interrogation finished",
               ros::obs::kv("frames", tel.n_frames),
               ros::obs::kv("points", tel.n_points),
               ros::obs::kv("clusters", tel.n_clusters),
               ros::obs::kv("candidates", tel.n_candidates),
               ros::obs::kv("tags", tel.n_tags),
               ros::obs::kv("total_ms", tel.total_ms));
  return report;
}

}  // namespace ros::pipeline
