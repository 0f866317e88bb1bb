// Shared interrogation pipeline stages (ros::pipeline).
//
// The building blocks of the interrogation engine
// (`StreamingInterrogator`, ros/pipeline/streaming.hpp): the layers of
// a read and their names, the per-frame heavy stage (scene returns ->
// synthesize -> range FFT -> detect), the per-cluster sample/classify/
// decode stage, and the observability helpers every read shares.
//
// Everything here is deterministic per (config, scene, pose, frame
// index): the per-frame stage derives its RNG stream from
// derive_stream_seed(noise_seed, i), so it can run on any thread, in
// any order, concurrently — the engine's block driver runs it under
// exec::parallel_for, the corridor runtime interleaves many sessions'
// frames across the pool, and both get the same bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "ros/obs/alloc.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/timer.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/radar/processing.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/scene/scene.hpp"

namespace ros::pipeline {

/// The layers of a read (paper Sec. 6), in pipeline order. A layer's
/// span, its PipelineTelemetry stage and its histogram `<name>.ms` share
/// one name (kLayerNames): the one bench/e2e reports the layer under.
/// The frame stage runs returns .. detect; detect, merge, cluster and
/// classify run in full mode only.
enum class Layer : std::uint8_t {
  track, returns, synthesize, range_fft, detect,
  merge, cluster, sample, classify, decode
};
inline constexpr std::size_t kLayers = 10;

inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "scene.track",      "scene.returns",    "radar.synthesize",
    "radar.range_fft",  "radar.detect",     "pipeline.merge",
    "pipeline.cluster", "pipeline.sample",  "pipeline.classify",
    "tag.decode"};

constexpr const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

/// Measured milliseconds per layer: one frame's (carried in its
/// FramePacket) or one read's sums.
struct LayerMs {
  std::array<double, kLayers> values{};

  double& operator[](Layer layer) {
    return values[static_cast<std::size_t>(layer)];
  }
  double operator[](Layer layer) const {
    return values[static_cast<std::size_t>(layer)];
  }
  LayerMs& operator+=(const LayerMs& other) {
    for (std::size_t k = 0; k < kLayers; ++k) values[k] += other.values[k];
    return *this;
  }
  double sum() const {
    return std::accumulate(values.begin(), values.end(), 0.0);
  }
};

/// Each layer's `<name>.ms` histogram in the global registry, indexed
/// by Layer; looked up once per read so a span never searches the
/// registry.
using LayerHistograms = std::array<ros::obs::Histogram*, kLayers>;
LayerHistograms layer_histograms();

/// A span named after `layer` that observes its histogram.
inline ros::obs::ScopedTimer layer_span(Layer layer,
                                        const LayerHistograms& hist) {
  return ros::obs::ScopedTimer(layer_name(layer), "pipeline",
                               hist[static_cast<std::size_t>(layer)]);
}

/// Per-thread reusable frame-loop storage. Every container is cleared
/// (never shrunk) between frames, so after the first frame on each
/// worker the synthesize -> FFT path runs without heap traffic; the
/// `*.frame_loop.allocs_per_frame` gauges measure exactly that.
struct FrameWorkspace {
  std::vector<ros::scene::ScatterPoint> points;
  std::vector<ros::radar::ScatterReturn> ret_normal;
  std::vector<ros::radar::ScatterReturn> ret_switched;
  ros::radar::FrameCube cube_normal;
  ros::radar::FrameCube cube_switched;

  static FrameWorkspace& thread_local_workspace();
};

/// Output of the full-mode per-frame stage: both Tx passes' range
/// profiles plus their detections.
struct FrameArtifacts {
  ros::radar::RangeProfile normal;
  ros::radar::RangeProfile switched;
  std::vector<ros::radar::Detection> det_normal;
  std::vector<ros::radar::Detection> det_switched;
};

/// Per-sample noise power for the waveform synthesizer, combining the
/// thermal floor with the optional external-interference floor so the
/// post-FFT bin floor equals the link budget's L0.
double combined_noise_w(const InterrogatorConfig& config);

/// |u| ceiling for the decoder series: sin(decode_fov_rad / 2), or 1
/// when FoV truncation is disabled.
double decode_max_abs_u(const InterrogatorConfig& config);

/// The heavy, embarrassingly parallel per-frame stage. One instance per
/// run; `run_full` / `run_decode` are const and callable concurrently
/// from any thread — output depends only on (config, scene, pose, i).
/// Each layer runs in its own span, whose stop() lands in the frame's
/// `ms` so the consumer can sum and observe it; the stage itself keeps
/// no per-read state.
class FrameStage {
 public:
  FrameStage(const InterrogatorConfig& config,
             const ros::scene::Scene& scene);

  /// Re-point the stage at a new (config, scene) pair — the
  /// allocation-free reset that lets a recycled streaming session reuse
  /// this stage object. `config` must outlive the stage (the streaming
  /// engine passes its own copy).
  void rebind(const InterrogatorConfig& config,
              const ros::scene::Scene& scene);

  double fc() const { return fc_; }

  /// Frame i's counter-derived RNG stream seed: the same value the
  /// stage uses internally, exposed for flight-recorder provenance.
  std::uint64_t stream_seed(std::size_t i) const;

  /// Full mode: scene returns, synthesis, range FFT and detection, each
  /// for both Tx passes. RNG draw order (returns normal, returns
  /// switched, noise key normal, noise key switched) is part of the
  /// bit-identity contract. Writes the four layers' times into `ms`.
  void run_full(const ros::scene::RadarPose& pose, std::size_t i,
                FrameArtifacts& out, LayerMs& ms) const;

  /// Decode mode: switched pass only; scene returns, synthesis and range
  /// FFT, with their times written into `ms`.
  void run_decode(const ros::scene::RadarPose& pose, std::size_t i,
                  ros::radar::RangeProfile& out, LayerMs& ms) const;

 private:
  const InterrogatorConfig* config_;
  const ros::scene::Scene* scene_;
  ros::radar::WaveformSynthesizer synth_;
  double fc_;
  double noise_w_;
};

/// Classify every dense cluster in `report.clusters` (spotlight both Tx
/// passes, RSS-loss feature) and decode the tag candidates, appending
/// to report.candidates / report.tags / report.telemetry.tags — the
/// full-mode finalizer's back half. `profiles_*` and `estimated` must be
/// frame-aligned. Adds the sample, classify and decode spans' times to
/// `read_ms`. Emits per-tag probe taps when a capture is active.
/// Returns true when at least one candidate series reached the coding
/// band (the funnel's "aperture" verdict).
bool classify_and_decode_clusters(
    const InterrogatorConfig& config,
    std::span<const ros::radar::RangeProfile> profiles_normal,
    std::span<const ros::radar::RangeProfile> profiles_switched,
    std::span<const ros::scene::RadarPose> estimated,
    const ros::scene::Vec2& road, double max_abs_u,
    const LayerHistograms& hist, InterrogationReport& report,
    LayerMs& read_ms);

/// Single-read OOK quality estimate: pool slot amplitudes by decoded
/// bit and apply the paper's SNR/BER mapping. NaN SNR (and 0.5 BER)
/// when only one symbol class was read.
TagDecodeTelemetry decode_telemetry(const ros::tag::DecodeResult& decode,
                                    const std::vector<RssSample>& samples);

/// Mean spotlighted RSS in dBm (power-domain mean over the samples).
double mean_rss_dbm(std::span<const RssSample> samples);

/// Publish the mean heap allocations per frame observed across a frame
/// loop (process-wide counter delta; nothing else runs during the
/// loop). No-op when the ros::obs allocation hook is compiled out.
void record_frame_loop_allocs(const char* gauge,
                              const ros::obs::AllocCounters& before,
                              std::size_t n_frames);

/// Per-run funnel counters (runs / frames / points / clusters /
/// candidates / tags) for the exporters.
void record_funnel(const PipelineTelemetry& t);

/// Per-read funnel counters for the JSONL/Prometheus exporters: one
/// attempted read, and one increment per funnel stage it survived.
void record_read_funnel(bool detected, bool clustered, bool aperture,
                        bool decoded);

/// Observability session setup shared by every entry point: start the
/// env-configured snapshot exporter and crash handlers (both no-ops
/// without their env vars), cheap after the first call.
void obs_session_begin();

/// Post-loop runtime introspection: arena high-water marks and pool
/// activity, as gauges plus (sampled) flight events.
void record_runtime_introspection();

}  // namespace ros::pipeline
