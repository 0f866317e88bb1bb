// The interrogation engine (ros::pipeline) — the one implementation of
// a read. `decode_drive` and `Interrogator::run` are thin drivers over
// it (construct, push_all(), finalize); the corridor runtime drives it
// frame by frame. The pipeline is a per-frame state machine:
//
//   synthesize(i)  — the heavy stateless stage (scene returns, waveform
//                    synthesis, range FFT, detection), callable from ANY
//                    thread in any order; frame i's output depends only
//                    on (config, scene, pose_i, i) via its
//                    counter-derived RNG stream.
//   consume(pkt)   — the sequential state machine: in-order multi-frame
//                    merge, incremental tracking estimate, and per-frame
//                    spotlight RSS sampling.
//   finalize_*()   — the terminal stage producing the read's result:
//                    full mode clusters the merged cloud once with
//                    DBSCAN, then discriminates and decodes (paper
//                    Sec. 6); decode mode decodes the sampled series.
//
// Timing: every layer (ros/pipeline/stages.hpp `Layer`) runs in one
// ScopedTimer span named after it. A frame's packet carries the times
// its worker measured; consume() adds them and its own to the read's
// per-layer sums, in frame order, so a read's PipelineTelemetry stages
// are measured thread time with no atomics and no apportioning.
//
// push_all() is the parallel driver: it synthesizes the remaining
// frames in fixed blocks of kBlockFrames over exec::parallel_for and
// consumes each block in order on the calling thread. The block bound
// is the backpressure: at most one block of packets is in flight.
//
// Reference contract (enforced bit-for-bit, no epsilon, against the
// serial layer-call oracle in tests/support/pipeline_oracle.hpp by
// tests/integration/test_streaming_equivalence): finalize_decode() and
// finalize_report() equal the oracle for every thread count, SIMD
// backend and frame-delivery chunking.
//
// Memory: decode mode retains O(in-FoV samples) plus O(1) tracking
// state, because the spotlight samples are taken per frame and never
// need the profile again; set `retain_samples = false` to drop the
// O(n_frames) output sample list for soak runs. Full mode retains every
// frame's two range profiles, pose estimate and cloud points for the
// whole read, since classification samples the profiles at the clusters
// the whole pass reveals.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ros/dsp/series_window.hpp"
#include "ros/obs/timer.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/scene/tracking.hpp"

namespace ros::pipeline {

struct StreamingOptions {
  /// Keep the per-frame RssSample list in the DecodeDriveResult. false
  /// drops it for bounded-memory soak runs; the decode itself is
  /// unaffected.
  bool retain_samples = true;
};

/// One frame's artifacts in flight between the synthesis stage and the
/// consumer. Decode mode fills `profile`; full mode fills `full`. `ms`
/// holds the frame's measured layer times.
struct FramePacket {
  std::size_t index = 0;
  FrameArtifacts full;
  ros::radar::RangeProfile profile;
  LayerMs ms;
};

class StreamingInterrogator {
 public:
  /// Frames push_all() synthesizes per parallel block.
  static constexpr std::size_t kBlockFrames = 64;

  /// Decode mode: the tag's position is known (e.g. from a previous
  /// pass); only switched-Tx spotlight sampling and the spatial decoder
  /// run. `scene` and `drive` are held by reference and must outlive
  /// the engine (temporaries are rejected at compile time).
  StreamingInterrogator(const InterrogatorConfig& config,
                        const ros::scene::Scene& scene,
                        const ros::scene::StraightDrive& drive,
                        const ros::scene::Vec2& tag_position,
                        StreamingOptions opts = {});
  StreamingInterrogator(const InterrogatorConfig&, ros::scene::Scene&&,
                        const ros::scene::StraightDrive&,
                        const ros::scene::Vec2&,
                        StreamingOptions = {}) = delete;
  StreamingInterrogator(const InterrogatorConfig&, const ros::scene::Scene&,
                        ros::scene::StraightDrive&&, const ros::scene::Vec2&,
                        StreamingOptions = {}) = delete;

  /// Full mode: detection, clustering, discrimination, and decode.
  StreamingInterrogator(const InterrogatorConfig& config,
                        const ros::scene::Scene& scene,
                        const ros::scene::StraightDrive& drive);
  StreamingInterrogator(const InterrogatorConfig&, ros::scene::Scene&&,
                        const ros::scene::StraightDrive&) = delete;
  StreamingInterrogator(const InterrogatorConfig&, const ros::scene::Scene&,
                        ros::scene::StraightDrive&&) = delete;

  ~StreamingInterrogator();
  StreamingInterrogator(const StreamingInterrogator&) = delete;
  StreamingInterrogator& operator=(const StreamingInterrogator&) = delete;

  /// Recycle this engine for a new decode-mode session WITHOUT releasing
  /// buffer capacity: every container is cleared, not shrunk, and every
  /// POD member reassigned, so a warm engine taken from a free list
  /// starts the next vehicle pass with zero heap traffic (the corridor
  /// runtime's churn contract). Only valid on engines constructed in
  /// decode mode. Any un-finalized previous session is discarded.
  void rebind(const InterrogatorConfig& config,
              const ros::scene::Scene& scene,
              const ros::scene::StraightDrive& drive,
              const ros::scene::Vec2& tag_position,
              StreamingOptions opts = {});
  void rebind(const InterrogatorConfig&, ros::scene::Scene&&,
              const ros::scene::StraightDrive&, const ros::scene::Vec2&,
              StreamingOptions = {}) = delete;
  void rebind(const InterrogatorConfig&, const ros::scene::Scene&,
              ros::scene::StraightDrive&&, const ros::scene::Vec2&,
              StreamingOptions = {}) = delete;

  bool decode_mode() const { return decode_mode_; }
  const InterrogatorConfig& config() const { return config_; }
  /// Frames the drive yields at the configured rate — the stream length.
  std::size_t n_frames() const { return n_frames_; }
  std::size_t frames_consumed() const { return consumed_; }

  /// Heavy per-frame stage. Stateless and const: callable concurrently
  /// from any thread, in any order.
  FramePacket synthesize(std::size_t i) const;
  /// Allocation-reusing variant for hot producer loops.
  void synthesize_into(std::size_t i, FramePacket& out) const;

  /// Sequential state machine; packets MUST arrive in frame order
  /// (enforced).
  void consume(FramePacket&& packet);

  /// synthesize + consume one frame on the calling thread, through a
  /// per-thread packet that decode mode reuses without allocating.
  void push_frame(std::size_t i);

  /// The parallel driver: synthesize every remaining frame in blocks of
  /// kBlockFrames across the exec pool, consuming each block in order.
  void push_all();

  /// Terminal stages. Call exactly once, after the last consume().
  DecodeDriveResult finalize_decode();
  InterrogationReport finalize_report();

 private:
  void begin_read();
  /// The read's layer sums as PipelineTelemetry stages, in layer order.
  void book_stages(PipelineTelemetry& tel) const;

  InterrogatorConfig config_;  ///< own copy: the engine may outlive the caller's
  const ros::scene::Scene* scene_;
  const ros::scene::StraightDrive* drive_;
  StreamingOptions opts_;
  bool decode_mode_;
  ros::scene::Vec2 tag_position_{0.0, 0.0};

  FrameStage stage_;
  double rate_hz_;
  std::size_t n_frames_ = 0;
  ros::scene::Vec2 road_{1.0, 0.0};
  double max_abs_u_ = 1.0;
  ros::scene::TrackingEstimator tracker_;

  std::size_t consumed_ = 0;
  bool finalized_ = false;
  bool probing_ = false;

  // --- decode-mode state ---------------------------------------------
  std::vector<RssSample> samples_;   ///< retained when opts_.retain_samples
  double sum_rss_w_ = 0.0;           ///< running mean accumulator
  std::size_t n_samples_ = 0;
  ros::dsp::SeriesWindow series_;    ///< decoder input (in-FoV samples)
  RangeProfilesCapture range_capture_;  ///< built only while probing

  // --- full-mode state -------------------------------------------------
  std::vector<ros::radar::RangeProfile> profiles_normal_;
  std::vector<ros::radar::RangeProfile> profiles_switched_;
  std::vector<ros::scene::RadarPose> estimated_;
  PointCloud cloud_;

  // --- telemetry -------------------------------------------------------
  std::optional<ros::obs::ScopedTimer> run_timer_;  ///< whole-read span
  LayerHistograms layer_hist_{};  ///< `<layer>.ms`, looked up per read
  ros::obs::Histogram* frame_hist_ = nullptr;  ///< `*.frame.ms`
  LayerMs layer_ms_;  ///< the read's per-layer sums
};

}  // namespace ros::pipeline
