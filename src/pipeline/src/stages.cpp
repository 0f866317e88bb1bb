#include "ros/pipeline/stages.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ros/common/random.hpp"
#include "ros/common/units.hpp"
#include "ros/dsp/ook.hpp"
#include "ros/exec/arena.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/crash.hpp"
#include "ros/obs/export.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/obs/timer.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/tag/codec.hpp"

namespace ros::pipeline {

using namespace ros::common;

namespace {

constexpr const char* kLog = "pipeline";

constexpr std::array<const char*, kLayers> kLayerHistogramNames = {
    "scene.track.ms",      "scene.returns.ms",   "radar.synthesize.ms",
    "radar.range_fft.ms",  "radar.detect.ms",    "pipeline.merge.ms",
    "pipeline.cluster.ms", "pipeline.sample.ms", "pipeline.classify.ms",
    "tag.decode.ms"};

}  // namespace

LayerHistograms layer_histograms() {
  auto& reg = ros::obs::MetricsRegistry::global();
  LayerHistograms out{};
  for (std::size_t k = 0; k < kLayers; ++k) {
    out[k] = &reg.histogram(kLayerHistogramNames[k]);
  }
  return out;
}

FrameWorkspace& FrameWorkspace::thread_local_workspace() {
  static thread_local FrameWorkspace ws;
  return ws;
}

double combined_noise_w(const InterrogatorConfig& config) {
  // Per-sample noise power so that the post-FFT bin floor equals the
  // link budget's L0 (the range FFT averages N samples).
  const double floor_w =
      dbm_to_watt(config.budget.noise_floor_dbm()) +
      (config.extra_noise_dbm > -200.0
           ? dbm_to_watt(config.extra_noise_dbm)
           : 0.0);
  return floor_w * static_cast<double>(config.chirp.n_samples);
}

double decode_max_abs_u(const InterrogatorConfig& config) {
  return config.decode_fov_rad > 0.0
             ? std::sin(config.decode_fov_rad / 2.0)
             : 1.0;
}

FrameStage::FrameStage(const InterrogatorConfig& config,
                       const ros::scene::Scene& scene)
    : config_(&config),
      scene_(&scene),
      synth_(config.chirp, config.array),
      fc_(config.chirp.center_hz()),
      noise_w_(combined_noise_w(config)) {}

void FrameStage::rebind(const InterrogatorConfig& config,
                        const ros::scene::Scene& scene) {
  config_ = &config;
  scene_ = &scene;
  synth_ = ros::radar::WaveformSynthesizer(config.chirp, config.array);
  fc_ = config.chirp.center_hz();
  noise_w_ = combined_noise_w(config);
}

std::uint64_t FrameStage::stream_seed(std::size_t i) const {
  return derive_stream_seed(config_->noise_seed, i);
}

void FrameStage::run_full(const ros::scene::RadarPose& pose,
                          std::size_t i, FrameArtifacts& out,
                          LayerMs& ms) const {
  using ros::obs::ScopedTimer;
  Rng rng(stream_seed(i));
  FrameWorkspace& ws = FrameWorkspace::thread_local_workspace();

  // RNG draw order (returns normal, returns switched, noise key normal,
  // noise key switched) is part of the bit-identity contract with the
  // serial reference (tests/support/pipeline_oracle.hpp).
  ScopedTimer t_returns(layer_name(Layer::returns));
  scene_->frame_returns_into(pose, ros::radar::TxMode::normal,
                             config_->array, config_->budget, fc_, rng,
                             ws.points, ws.ret_normal);
  scene_->frame_returns_into(pose, ros::radar::TxMode::switched,
                             config_->array, config_->budget, fc_, rng,
                             ws.points, ws.ret_switched);
  ms[Layer::returns] = t_returns.stop();

  ScopedTimer t_synth(layer_name(Layer::synthesize));
  synth_.synthesize_into(ws.ret_normal, noise_w_, rng, ws.cube_normal);
  synth_.synthesize_into(ws.ret_switched, noise_w_, rng,
                         ws.cube_switched);
  ms[Layer::synthesize] = t_synth.stop();

  ScopedTimer t_fft(layer_name(Layer::range_fft));
  ros::radar::range_fft_into(ws.cube_normal, config_->chirp,
                             ros::dsp::Window::hann, out.normal);
  ros::radar::range_fft_into(ws.cube_switched, config_->chirp,
                             ros::dsp::Window::hann, out.switched);
  ms[Layer::range_fft] = t_fft.stop();

  ScopedTimer t_detect(layer_name(Layer::detect));
  out.det_normal = ros::radar::detect_points(out.normal, config_->array,
                                             fc_, config_->detector);
  out.det_switched = ros::radar::detect_points(
      out.switched, config_->array, fc_, config_->detector);
  ms[Layer::detect] = t_detect.stop();
}

void FrameStage::run_decode(const ros::scene::RadarPose& pose,
                            std::size_t i, ros::radar::RangeProfile& out,
                            LayerMs& ms) const {
  using ros::obs::ScopedTimer;
  Rng rng(stream_seed(i));
  FrameWorkspace& ws = FrameWorkspace::thread_local_workspace();
  ScopedTimer t_returns(layer_name(Layer::returns));
  scene_->frame_returns_into(pose, ros::radar::TxMode::switched,
                             config_->array, config_->budget, fc_, rng,
                             ws.points, ws.ret_switched);
  ms[Layer::returns] = t_returns.stop();
  ScopedTimer t_synth(layer_name(Layer::synthesize));
  synth_.synthesize_into(ws.ret_switched, noise_w_, rng,
                         ws.cube_switched);
  ms[Layer::synthesize] = t_synth.stop();
  ScopedTimer t_fft(layer_name(Layer::range_fft));
  ros::radar::range_fft_into(ws.cube_switched, config_->chirp,
                             ros::dsp::Window::hann, out);
  ms[Layer::range_fft] = t_fft.stop();
}

bool classify_and_decode_clusters(
    const InterrogatorConfig& config,
    std::span<const ros::radar::RangeProfile> profiles_normal,
    std::span<const ros::radar::RangeProfile> profiles_switched,
    std::span<const ros::scene::RadarPose> estimated,
    const ros::scene::Vec2& road, double max_abs_u,
    const LayerHistograms& hist, InterrogationReport& report,
    LayerMs& read_ms) {
  namespace probe = ros::obs::probe;
  auto& reg = ros::obs::MetricsRegistry::global();
  PipelineTelemetry& tel = report.telemetry;
  const double fc = config.chirp.center_hz();

  bool aperture_any = false;
  for (const Cluster& cluster : report.clusters) {
    // Spotlight the cluster in both passes to get the RSS-loss feature.
    auto t_sample = layer_span(Layer::sample, hist);
    const auto samples_n =
        sample_rss(profiles_normal, estimated, cluster.centroid, road,
                   config.array, fc);
    const auto samples_s =
        sample_rss(profiles_switched, estimated, cluster.centroid, road,
                   config.array, fc);
    read_ms[Layer::sample] += t_sample.stop();

    auto t_classify = layer_span(Layer::classify, hist);
    TagCandidate cand = classify_cluster(cluster, mean_rss_dbm(samples_n),
                                         mean_rss_dbm(samples_s),
                                         config.tag_detector);
    read_ms[Layer::classify] += t_classify.stop();
    report.candidates.push_back(cand);
    ROS_LOG_DEBUG(kLog, "cluster classified",
                  ros::obs::kv("centroid_x", cand.cluster.centroid.x),
                  ros::obs::kv("centroid_y", cand.cluster.centroid.y),
                  ros::obs::kv("rss_loss_db", cand.rss_loss_db),
                  ros::obs::kv("is_tag", cand.is_tag));
    if (!cand.is_tag) continue;

    // Decode from the switched-pass samples.
    auto t_decode = layer_span(Layer::decode, hist);
    const auto series = to_decoder_series(samples_s, max_abs_u);
    // Forensic spectrum tap for the first few decoded tags (pure
    // observation; bounded so a many-tag scene cannot balloon the
    // bundle).
    ros::dsp::SpectrumTap spectrum_tap;
    ros::tag::DecoderConfig decoder_config = config.decoder;
    const bool tap_this = probe::capturing() && report.tags.size() < 4;
    if (tap_this) decoder_config.spectrum.tap = &spectrum_tap;
    const ros::tag::SpatialDecoder decoder(decoder_config);
    if (series.u.size() < 16 || !decoder.can_decode(series.u)) {
      read_ms[Layer::decode] += t_decode.stop();
      ROS_LOG_WARN(kLog,
                   "tag candidate dropped: series too short or narrow "
                   "for the coding band",
                   ros::obs::kv("samples", series.u.size()),
                   ros::obs::kv("centroid_x", cand.cluster.centroid.x));
      reg.counter("pipeline.decode_dropped_short_series").inc();
      continue;
    }
    aperture_any = true;
    TagReadout readout;
    readout.candidate = cand;
    readout.samples = samples_s;
    readout.decode = decoder.decode(series.u, series.rss_linear);
    read_ms[Layer::decode] += t_decode.stop();
    tel.tags.push_back(decode_telemetry(readout.decode, readout.samples));
    if (tap_this) {
      const std::string tag = "tag" + std::to_string(report.tags.size());
      probe::stage_artifact(tag + ".samples",
                            samples_json(readout.samples));
      probe::stage_artifact(tag + ".coding_spectrum",
                            spectrum_json(readout.decode.spectrum));
      probe::stage_artifact(tag + ".spectrum_intermediates",
                            spectrum_tap_json(spectrum_tap));
      probe::stage_artifact(
          tag + ".bit_margins",
          bit_margins_json(readout.decode, config.decoder));
    }
    report.tags.push_back(std::move(readout));
  }
  return aperture_any;
}

TagDecodeTelemetry decode_telemetry(const ros::tag::DecodeResult& decode,
                                    const std::vector<RssSample>& samples) {
  TagDecodeTelemetry out;
  out.bits = decode.bits;
  out.n_samples = samples.size();
  out.mean_rss_dbm = mean_rss_dbm(samples);

  std::vector<double> ones;
  std::vector<double> zeros;
  for (std::size_t k = 0; k < decode.bits.size(); ++k) {
    (decode.bits[k] ? ones : zeros).push_back(decode.slot_amplitudes[k]);
  }
  if (ones.empty() || zeros.empty()) {
    out.snr_db = std::numeric_limits<double>::quiet_NaN();
    out.ber = 0.5;
    return out;
  }
  const double snr = ros::dsp::ook_snr(ones, zeros);
  out.snr_db = linear_to_db(snr);
  out.ber = ros::dsp::ook_ber(snr);
  return out;
}

double mean_rss_dbm(std::span<const RssSample> samples) {
  double sum_w = 0.0;
  for (const auto& s : samples) sum_w += s.rss_w;
  return watt_to_dbm(sum_w / std::max<std::size_t>(1, samples.size()));
}

void record_frame_loop_allocs(const char* gauge,
                              const ros::obs::AllocCounters& before,
                              std::size_t n_frames) {
  if (!ros::obs::alloc_counting_enabled() || n_frames == 0) return;
  const auto after = ros::obs::alloc_counters();
  ros::obs::MetricsRegistry::global().gauge(gauge).set(
      static_cast<double>(after.allocs - before.allocs) /
      static_cast<double>(n_frames));
}

void record_funnel(const PipelineTelemetry& t) {
  auto& reg = ros::obs::MetricsRegistry::global();
  reg.counter("pipeline.runs").inc();
  reg.counter("pipeline.frames").inc(t.n_frames);
  reg.counter("pipeline.points").inc(t.n_points);
  reg.counter("pipeline.clusters").inc(t.n_clusters);
  reg.counter("pipeline.candidates").inc(t.n_candidates);
  reg.counter("pipeline.tags_decoded").inc(t.n_tags);
}

void record_read_funnel(bool detected, bool clustered, bool aperture,
                        bool decoded) {
  auto& reg = ros::obs::MetricsRegistry::global();
  reg.counter("pipeline.funnel.attempted").inc();
  if (detected) reg.counter("pipeline.funnel.detected").inc();
  if (clustered) reg.counter("pipeline.funnel.clustered").inc();
  if (aperture) reg.counter("pipeline.funnel.aperture_sufficient").inc();
  if (decoded) reg.counter("pipeline.funnel.decoded").inc();
}

void obs_session_begin() {
  ros::obs::SnapshotExporter::ensure_started_from_env();
  ros::obs::maybe_install_crash_handlers_from_env();
}

void record_runtime_introspection() {
  auto& reg = ros::obs::MetricsRegistry::global();
  const std::size_t arena_hwm = ros::exec::Arena::global_high_water();
  reg.gauge("exec.arena.high_water_bytes")
      .set(static_cast<double>(arena_hwm));
  const ros::exec::PoolStats ps = ros::exec::ThreadPool::global().stats();
  reg.gauge("exec.pool.threads").set(static_cast<double>(ps.threads));
  reg.gauge("exec.pool.regions").set(static_cast<double>(ps.regions));
  auto& flight = ros::obs::FlightRecorder::global();
  if (flight.enabled()) {
    static const std::uint32_t arena_id = flight.intern("exec.arena");
    flight.record(ros::obs::FlightKind::arena_hwm, arena_id, arena_hwm);
  }
}

}  // namespace ros::pipeline
