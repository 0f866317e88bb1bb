#include "ros/pipeline/streaming.hpp"

#include <chrono>
#include <cmath>
#include <iterator>
#include <utility>

#include "ros/common/expect.hpp"
#include "ros/common/units.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/alloc.hpp"
#include "ros/obs/crash.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/tag/codec.hpp"

namespace ros::pipeline {

using namespace ros::common;
using ros::radar::RangeProfile;
using ros::scene::RadarPose;
using ros::scene::Vec2;

namespace {

constexpr const char* kLog = "pipeline";

/// to_decoder_series' default RSS floor, mirrored so the incremental
/// series filter is bit-identical to the batch filter.
constexpr double kMinRssDbm = -1e9;

double monotonic_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Vec2 road_of(const ros::scene::StraightDrive& drive) {
  return drive.velocity() * (1.0 / std::max(drive.velocity().norm(), 1e-9));
}

std::size_t frames_in(const ros::scene::StraightDrive& drive,
                      double rate_hz) {
  // Mirrors StraightDrive::frames(): n = floor(T * rate) + 1.
  return static_cast<std::size_t>(
             std::floor(drive.duration_s() * rate_hz)) +
         1;
}

/// Names of one read mode — the probe kind and every span, histogram,
/// and gauge the read records — spelled out so recording them never
/// builds a string.
struct ModeNames {
  const char* kind;
  const char* run;
  const char* run_ms;
  const char* frames;
  const char* frame;
  const char* frame_ms;
  const char* rng_stream;
  const char* allocs_per_frame;
};

constexpr ModeNames kDecodeNames{
    "decode_drive",            "decode_drive.run",
    "decode_drive.run.ms",     "decode_drive.frames",
    "decode_drive.frame",      "decode_drive.frame.ms",
    "decode_drive.rng_stream", "decode_drive.frame_loop.allocs_per_frame"};
constexpr ModeNames kFullNames{
    "interrogate",             "interrogate.run",
    "interrogate.run.ms",      "interrogate.frames",
    "interrogate.frame",       "interrogate.frame.ms",
    "interrogate.rng_stream",  "interrogate.frame_loop.allocs_per_frame"};

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
      tracker_(config_.tracking),
      dbscan_(config_.dbscan) {
  validate(config_);
  obs_session_begin();
  n_frames_ = frames_in(drive, rate_hz_);
  road_ = road_of(drive);
  max_abs_u_ = decode_max_abs_u(config_);
  // Early emit is gated on provability: with FoV truncation active and
  // a jitter-free tracking estimate, u is exactly monotone along the
  // straight drive, so a sample past the FoV edge makes the series
  // final. With jitter the estimate can wander back into the FoV, so
  // the gate stays closed and the engine decodes only at finalize.
  emit_eligible_ = opts_.early_emit && max_abs_u_ < 1.0 &&
                   config_.tracking.jitter_std_m == 0.0;
  if (opts_.retain_samples) samples_.reserve(n_frames_);
  series_.reserve(n_frames_);
  begin_read();
}

StreamingInterrogator::StreamingInterrogator(
    const InterrogatorConfig& config, const ros::scene::Scene& scene,
    const ros::scene::StraightDrive& drive, StreamingOptions opts)
    : config_(config),
      scene_(&scene),
      drive_(&drive),
      opts_(opts),
      decode_mode_(false),
      stage_(config_, scene),
      rate_hz_(config_.chirp.frame_rate_hz /
               static_cast<double>(config_.frame_stride)),
      tracker_(config_.tracking),
      dbscan_(config_.dbscan) {
  validate(config_);
  obs_session_begin();
  n_frames_ = frames_in(drive, rate_hz_);
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
  run_timer_.emplace(
      names.run, "pipeline",
      &ros::obs::MetricsRegistry::global().histogram(names.run_ms));
  namespace probe = ros::obs::probe;
  probing_ = probe::armed() &&
             probe::begin_read(names.kind, config_.noise_seed,
                               config_digest(config_));
  if (!probing_) return;
  annotate_probe_runtime();
  probe::annotate("frame_stride", static_cast<double>(config_.frame_stride));
  probe::annotate("decode_fov_rad", config_.decode_fov_rad);
  probe::annotate("extra_noise_dbm", config_.extra_noise_dbm);
  probe::annotate("window_frames", static_cast<double>(opts_.window_frames));
  if (decode_mode_) {
    probe::annotate("early_emit", opts_.early_emit ? 1.0 : 0.0);
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
  n_frames_ = frames_in(drive, rate_hz_);
  road_ = road_of(drive);
  max_abs_u_ = decode_max_abs_u(config_);
  emit_eligible_ = opts_.early_emit && max_abs_u_ < 1.0 &&
                   config_.tracking.jitter_std_m == 0.0;
  tracker_ = ros::scene::TrackingEstimator(config_.tracking);
  consumed_ = 0;
  finalized_ = false;
  samples_.clear();
  if (opts_.retain_samples) samples_.reserve(n_frames_);
  sum_rss_w_ = 0.0;
  n_samples_ = 0;
  series_.clear();
  series_.reserve(n_frames_);
  mono_inc_ok_ = true;
  mono_dec_ok_ = true;
  saw_inc_ = false;
  saw_dec_ = false;
  prev_u_ = 0.0;
  have_prev_u_ = false;
  emitted_ = false;
  emit_frame_ = 0;
  frames_wall_ms_ = 0.0;
  track_ms_ = 0.0;
  frame_state_ms_ = 0.0;
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
  if (decode_mode_) {
    stage_.run_decode(pose, i, out.profile);
  } else {
    stage_.run_full(pose, i, out.full);
  }
}

void StreamingInterrogator::consume(FramePacket&& packet) {
  ROS_EXPECT(!finalized_, "stream already finalized");
  ROS_EXPECT(packet.index == consumed_,
             "frames must be consumed in order");
  const double t0 = monotonic_ms();
  const std::size_t i = packet.index;
  const RadarPose truth =
      drive_->pose_at(static_cast<double>(i) / rate_hz_);
  const RadarPose est = tracker_.next(truth);
  const double t1 = monotonic_ms();

  if (decode_mode_) {
    if (probing_) range_capture_.add(i, packet.profile);
    RssSample s;
    if (sample_rss_frame(packet.profile, est, tag_position_, road_,
                         config_.array, stage_.fc(), i, s)) {
      if (opts_.retain_samples) samples_.push_back(s);
      sum_rss_w_ += s.rss_w;
      ++n_samples_;
      // Mirror to_decoder_series' filter order exactly: FoV cut first,
      // then the RSS floor.
      if (!(std::abs(s.u) > max_abs_u_) && !(s.rss_dbm < kMinRssDbm)) {
        series_.push(s.u, s.rss_w);
      }
      if (have_prev_u_) {
        if (s.u < prev_u_) {
          mono_inc_ok_ = false;
          saw_dec_ = true;
        }
        if (s.u > prev_u_) {
          mono_dec_ok_ = false;
          saw_inc_ = true;
        }
      }
      prev_u_ = s.u;
      have_prev_u_ = true;
      maybe_early_emit(i);
    }
  } else {
    win_estimated_.push_back(est);
    scratch_cloud_.points.clear();
    accumulate(scratch_cloud_, packet.full.det_normal, est, i);
    accumulate(scratch_cloud_, packet.full.det_switched, est, i);
    for (const CloudPoint& p : scratch_cloud_.points) {
      dbscan_.insert(p.world);
      win_points_.push_back(p);
    }
    win_frame_point_counts_.push_back(scratch_cloud_.points.size());
    win_profiles_normal_.push_back(std::move(packet.full.normal));
    win_profiles_switched_.push_back(std::move(packet.full.switched));
    if (opts_.window_frames > 0 && i + 1 >= opts_.window_frames) {
      evict_before(i + 1 - opts_.window_frames);
    }
  }
  ++consumed_;
  track_ms_ += t1 - t0;
  frame_state_ms_ += monotonic_ms() - t1;
}

void StreamingInterrogator::evict_before(std::size_t min_live_frame) {
  while (win_first_frame_ < min_live_frame &&
         !win_frame_point_counts_.empty()) {
    const std::size_t n_points = win_frame_point_counts_.front();
    win_frame_point_counts_.pop_front();
    for (std::size_t k = 0; k < n_points; ++k) {
      dbscan_.evict(static_cast<int>(evicted_points_));
      ++evicted_points_;
      win_points_.pop_front();
    }
    win_profiles_normal_.pop_front();
    win_profiles_switched_.pop_front();
    win_estimated_.pop_front();
    ++win_first_frame_;
  }
}

void StreamingInterrogator::push_frame(std::size_t i) {
  consume(synthesize(i));
}

void StreamingInterrogator::push_all() {
  const ModeNames& names = decode_mode_ ? kDecodeNames : kFullNames;
  const std::size_t first = consumed_;
  auto& reg = ros::obs::MetricsRegistry::global();
  ros::obs::Histogram& frame_hist = reg.histogram(names.frame_ms);
  ros::obs::SlidingHistogram& frame_whist =
      reg.windowed_histogram(names.frame_ms);
  auto& flight = ros::obs::FlightRecorder::global();
  const std::uint32_t frame_id = flight.intern(names.frame);
  const std::uint32_t rng_id = flight.intern(names.rng_stream);
  const double deadline_ms = frame_deadline_ms();

  // One trace span for the whole frame loop; per-frame cost goes to the
  // frame histograms (per-frame spans would swamp the trace at 1 kHz).
  ros::obs::ScopedTimer frames_timer(names.frames, "pipeline");
  const auto allocs_before = ros::obs::alloc_counters();
  std::vector<FramePacket> block(
      std::min(kBlockFrames, n_frames_ - first));
  for (std::size_t base = first; base < n_frames_; base += block.size()) {
    const std::size_t count = std::min(block.size(), n_frames_ - base);
    const double t0 = monotonic_ms();
    ros::exec::parallel_for(0, count, [&](std::size_t k) {
      const std::size_t i = base + k;
      const double frame_t0 = monotonic_ms();
      // One sampling decision covers the frame's begin/seed/end records
      // so sampled frames land complete in the flight ring.
      const bool sampled = flight.enabled() && flight.should_sample();
      if (sampled) {
        flight.record(ros::obs::FlightKind::frame_begin, frame_id, i);
        flight.record(ros::obs::FlightKind::rng_seed, rng_id,
                      stage_.stream_seed(i));
      }
      const ros::obs::Watchdog::Guard wd(names.frame, deadline_ms, i);
      synthesize_into(i, block[k]);
      const double frame_ms = monotonic_ms() - frame_t0;
      frame_hist.observe(frame_ms);
      frame_whist.observe(frame_ms);
      if (sampled) {
        flight.record(ros::obs::FlightKind::frame_end, frame_id, i);
      }
    });
    frames_wall_ms_ += monotonic_ms() - t0;
    // In-order consume on the calling thread: the state machine's
    // bit-determinism needs frame order, not a particular schedule.
    for (std::size_t k = 0; k < count; ++k) consume(std::move(block[k]));
  }
  record_frame_loop_allocs(names.allocs_per_frame, allocs_before,
                           n_frames_ - first);
  record_runtime_introspection(n_frames_ - first);
}

void StreamingInterrogator::maybe_early_emit(std::size_t frame_index) {
  if (!emit_eligible_ || emitted_ || !have_prev_u_) return;
  // The series is provably final once the latest sample has left the
  // FoV on a monotone pass — in either drive direction. The direction
  // must be ESTABLISHED (a strict step observed), not just unfalsified:
  // with one sample both flags are vacuously true, and a pass that
  // merely STARTS outside the FoV would otherwise look finished.
  const bool past_edge =
      (mono_inc_ok_ && saw_inc_ && prev_u_ > max_abs_u_) ||
      (mono_dec_ok_ && saw_dec_ && prev_u_ < -max_abs_u_);
  if (!past_edge) return;
  // The latest sample left the FoV on a monotone pass: every future
  // sample is filtered out of the series, which is therefore final.
  const ros::tag::SpatialDecoder decoder(config_.decoder);
  if (series_.empty() || !decoder.can_decode(series_.u())) {
    // The aperture will never suffice (the series cannot grow again):
    // stop re-checking, but leave emitted_ unset so finalize reports
    // the no-read through the ordinary path.
    emit_eligible_ = false;
    return;
  }
  emitted_decode_ = decoder.decode(series_.u(), series_.rss_linear());
  emitted_ = true;
  emit_frame_ = frame_index;
  auto& reg = ros::obs::MetricsRegistry::global();
  reg.counter("pipeline.stream.early_emits").inc();
  // Emit latency: how much of the pass the readout needed.
  reg.histogram("stream.time_to_first_read.frames")
      .observe(static_cast<double>(frame_index + 1));
  reg.gauge("pipeline.stream.emit_frame")
      .set(static_cast<double>(frame_index));
  auto& flight = ros::obs::FlightRecorder::global();
  if (flight.enabled()) {
    static const std::uint32_t emit_id = flight.intern("stream.emit");
    flight.record(ros::obs::FlightKind::stream_emit, emit_id,
                  frame_index);
  }
  namespace probe = ros::obs::probe;
  if (probe::capturing()) {
    probe::annotate("emit_frame", static_cast<double>(frame_index));
    probe::funnel("early_emit", true,
                  "readout final at frame " +
                      std::to_string(frame_index) + " of " +
                      std::to_string(n_frames_));
    probe::stage_artifact(
        "early_emit.bit_margins",
        bit_margins_json(emitted_decode_, config_.decoder));
  }
  ROS_LOG_INFO(kLog, "decode emitted early",
               ros::obs::kv("frame", frame_index),
               ros::obs::kv("n_frames", n_frames_),
               ros::obs::kv("bits", emitted_decode_.bits.size()));
}

std::size_t StreamingInterrogator::emit_frame() const {
  ROS_EXPECT(emitted_, "no readout was emitted");
  return emit_frame_;
}

const ros::tag::DecodeResult& StreamingInterrogator::emitted_decode()
    const {
  ROS_EXPECT(emitted_, "no readout was emitted");
  return emitted_decode_;
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
  tel.add_stage("track", track_ms_);
  // Engines fed frame by frame (the corridor) have no block wall time;
  // their frame stage books the summed per-thread time instead.
  stage_.book_frames(tel, frames_wall_ms_, /*include_detect=*/false);
  tel.add_stage("sample_rss", frame_state_ms_);

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
    ros::obs::ScopedTimer t_decode(
        "decode_drive.decode", "pipeline",
        &reg.histogram("decode_drive.decode.ms"));
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
    tel.add_stage("decode", t_decode.stop());
  }

  // No-retraction law: an early-emitted readout must equal the final
  // decode bit for bit. Divergence is a contract violation — count it
  // loudly rather than papering over it.
  if (emitted_) {
    const bool match = emitted_decode_.bits == out.decode.bits &&
                       emitted_decode_.slot_amplitudes ==
                           out.decode.slot_amplitudes;
    if (!match) {
      reg.counter("pipeline.stream.emit_mismatch").inc();
      ROS_LOG_ERROR(kLog,
                    "early-emitted readout diverged from the final "
                    "decode (no-retraction violation)",
                    ros::obs::kv("emit_frame", emit_frame_));
    }
  }

  out.mean_rss_dbm =
      watt_to_dbm(sum_rss_w_ / std::max<std::size_t>(1, n_samples_));

  tel.n_tags = 1;  // decode-only mode reads exactly the targeted tag
  tel.n_clusters = 1;
  tel.n_candidates = 1;
  tel.tags.push_back(decode_telemetry(out.decode, out.samples));
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
                ros::obs::kv("early_emitted", emitted_),
                ros::obs::kv("mean_rss_dbm", out.mean_rss_dbm),
                ros::obs::kv("total_ms", tel.total_ms));
  return out;
}

InterrogationReport StreamingInterrogator::finalize_report() {
  ROS_EXPECT(!decode_mode_, "finalize_report requires full mode");
  ROS_EXPECT(!finalized_, "stream already finalized");
  finalized_ = true;
  namespace probe = ros::obs::probe;
  auto& reg = ros::obs::MetricsRegistry::global();
  InterrogationReport report;
  PipelineTelemetry& tel = report.telemetry;
  report.n_frames = consumed_;
  tel.n_frames = consumed_;
  tel.add_stage("track", track_ms_);
  stage_.book_frames(tel, frames_wall_ms_, /*include_detect=*/true);
  tel.add_stage("merge", frame_state_ms_);

  // The surviving window, in insertion order: for an unbounded window
  // this is every point the drive produced.
  report.cloud.points.assign(win_points_.begin(), win_points_.end());
  tel.n_points = report.cloud.points.size();

  // Contiguous window views for the classify/decode stage (the deques
  // release their storage here; the stream is over).
  const std::vector<RangeProfile> profiles_normal(
      std::make_move_iterator(win_profiles_normal_.begin()),
      std::make_move_iterator(win_profiles_normal_.end()));
  const std::vector<RangeProfile> profiles_switched(
      std::make_move_iterator(win_profiles_switched_.begin()),
      std::make_move_iterator(win_profiles_switched_.end()));
  const std::vector<RadarPose> estimated(win_estimated_.begin(),
                                         win_estimated_.end());
  win_profiles_normal_.clear();
  win_profiles_switched_.clear();
  if (probe::capturing()) {
    probe::funnel("synthesized", consumed_ > 0,
                  std::to_string(consumed_) + " frames");
    probe::funnel("detected", !report.cloud.points.empty(),
                  std::to_string(report.cloud.points.size()) +
                      " point-cloud points");
    probe::stage_artifact(
        "range_fft_normal",
        range_profiles_json(profiles_normal, config_.noise_seed));
    probe::stage_artifact(
        "range_fft_switched",
        range_profiles_json(profiles_switched, config_.noise_seed));
    probe::stage_artifact("pointcloud", pointcloud_json(report.cloud));
  }

  {
    ros::obs::ScopedTimer t_cluster(
        "interrogate.cluster", "pipeline",
        &reg.histogram("interrogate.cluster.ms"));
    report.clusters = filter_dense(
        extract_clusters_labeled(report.cloud, dbscan_.labels()),
        config_.tag_detector.min_density,
        config_.tag_detector.min_points);
    tel.add_stage("cluster", t_cluster.stop());
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
      config_, profiles_normal, profiles_switched, estimated, road_,
      max_abs_u_, report);
  tel.n_candidates = report.candidates.size();
  tel.n_tags = report.tags.size();
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
