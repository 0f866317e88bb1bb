// Shared interrogation pipeline stages (ros::pipeline).
//
// The building blocks of the interrogation engine
// (`StreamingInterrogator`, ros/pipeline/streaming.hpp): the per-frame
// heavy stage (synthesize -> range FFT -> detect), the per-cluster
// classify/decode stage, and the observability helpers every read
// shares.
//
// Everything here is deterministic per (config, scene, pose, frame
// index): the per-frame stage derives its RNG stream from
// derive_stream_seed(noise_seed, i), so it can run on any thread, in
// any order, concurrently — the engine's block driver runs it under
// exec::parallel_for, the corridor runtime interleaves many sessions'
// frames across the pool, and both get the same bits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ros/obs/alloc.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/radar/processing.hpp"
#include "ros/radar/waveform.hpp"
#include "ros/scene/scene.hpp"

namespace ros::pipeline {

/// Relaxed add-only accumulator for per-stage time measured on several
/// threads at once.
class AtomicMs {
 public:
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

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
/// Spans are named after the read mode: `interrogate.*` for run_full,
/// `decode_drive.*` for run_decode.
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
  double noise_w() const { return noise_w_; }

  /// Frame i's counter-derived RNG stream seed: the same value the
  /// stage uses internally, exposed for flight-recorder provenance.
  std::uint64_t stream_seed(std::size_t i) const;

  /// Full mode: synthesize both Tx passes, range-FFT both, detect in
  /// both. RNG draw order (returns normal, returns switched, noise key
  /// normal, noise key switched) is part of the bit-identity contract.
  void run_full(const ros::scene::RadarPose& pose, std::size_t i,
                FrameArtifacts& out) const;

  /// Decode mode: switched pass only, synthesize + range-FFT.
  void run_decode(const ros::scene::RadarPose& pose, std::size_t i,
                  ros::radar::RangeProfile& out) const;

  /// Book the accumulated per-thread stage times into `tel`, scaled to
  /// the frame loop's wall time (`include_detect` = full mode). A
  /// `wall_ms` <= 0 (no measured loop) books the per-thread sums as is.
  void book_frames(PipelineTelemetry& tel, double wall_ms,
                   bool include_detect) const;

 private:
  const InterrogatorConfig* config_;
  const ros::scene::Scene* scene_;
  ros::radar::WaveformSynthesizer synth_;
  double fc_;
  double noise_w_;
  mutable AtomicMs synth_ms_;
  mutable AtomicMs fft_ms_;
  mutable AtomicMs detect_ms_;
};

/// Classify every dense cluster in `report.clusters` (spotlight both Tx
/// passes, RSS-loss feature) and decode the tag candidates, appending
/// to report.candidates / report.tags / report.telemetry — the full-mode
/// finalizer's back half. `profiles_*` and `estimated` must be
/// frame-aligned. Emits per-tag probe taps when a capture is active.
/// Returns true when at least one candidate series reached the coding
/// band (the funnel's "aperture" verdict).
bool classify_and_decode_clusters(
    const InterrogatorConfig& config,
    std::span<const ros::radar::RangeProfile> profiles_normal,
    std::span<const ros::radar::RangeProfile> profiles_switched,
    std::span<const ros::scene::RadarPose> estimated,
    const ros::scene::Vec2& road, double max_abs_u,
    InterrogationReport& report);

/// Single-read OOK quality estimate: pool slot amplitudes by decoded
/// bit and apply the paper's SNR/BER mapping. NaN SNR (and 0.5 BER)
/// when only one symbol class was read.
TagDecodeTelemetry decode_telemetry(const ros::tag::DecodeResult& decode,
                                    const std::vector<RssSample>& samples);

/// Mean spotlighted RSS in dBm (power-domain mean over the samples).
double mean_rss_dbm(std::span<const RssSample> samples);

/// Frame stages run concurrently, so the summed per-thread stage times
/// can exceed the wall time of the frame loop. Telemetry keeps the
/// wall-clock convention (stages fit inside total_ms): book the loop's
/// wall time split across the stages in proportion to their thread-time
/// shares.
void book_frame_stages(PipelineTelemetry& tel, double wall_ms,
                       std::initializer_list<std::pair<const char*, double>>
                           stages);

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
