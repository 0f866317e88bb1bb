// The interrogation engine (ros::pipeline) — the one implementation of
// a read. `decode_drive` and `Interrogator::run` are thin drivers over
// it (construct, push_all(), finalize); the corridor runtime drives it
// frame by frame. The pipeline is a per-frame state machine:
//
//   synthesize(i)  — the heavy stateless stage (waveform synthesis,
//                    range FFT, detection), callable from ANY thread in
//                    any order; frame i's output depends only on
//                    (config, scene, pose_i, i) via its counter-derived
//                    RNG stream.
//   consume(pkt)   — the sequential state machine: in-order multi-frame
//                    merge, incremental tracking estimate, incremental
//                    grid-DBSCAN insertion (+ sliding-window eviction),
//                    per-frame spotlight RSS sampling, and the
//                    early-emit decode gate.
//   finalize_*()   — the terminal stage producing the read's result.
//
// push_all() is the parallel driver: it synthesizes the remaining
// frames in fixed blocks of kBlockFrames over exec::parallel_for and
// consumes each block in order on the calling thread. The block bound
// is the backpressure: at most one block of packets is in flight.
//
// Reference contract (enforced bit-for-bit, no epsilon, against the
// serial layer-call oracle in tests/support/pipeline_oracle.hpp by
// tests/integration/test_streaming_equivalence):
//
//   * decode mode (tag position known — the fleet-scale service mode):
//     finalize_decode() equals the oracle for EVERY window size, thread
//     count, SIMD backend and frame-delivery chunking, because the
//     spotlight samples are taken per frame and never need the profile
//     again.
//   * full mode: finalize_report() equals the oracle whenever the
//     window covers the whole drive (window_frames == 0, i.e.
//     unbounded, or >= n_frames). A bounded window lawfully degrades:
//     the report covers only the surviving window (DESIGN.md §10), and
//     the incremental clustering still matches batch DBSCAN of exactly
//     those surviving points — that invariant holds for every window
//     size.
//
// Early emit (decode mode): with FoV truncation active and a
// jitter-free tracking model, u = sin(view angle) is strictly monotone
// along a straight drive, so once the latest sample leaves the FoV the
// decoder series is provably final — the engine decodes immediately and
// `emitted_decode()` equals the final decode bit for bit (the
// "no-retraction" law). finalize_decode() re-decodes the final series
// and counts any disagreement in `pipeline.stream.emit_mismatch`
// (asserted zero in tests).
//
// Memory: decode mode retains O(in-FoV samples) — bounded by geometry,
// not drive length — plus O(1) tracking state; set
// `retain_samples = false` to drop the O(n_frames) output sample list
// for soak runs. Full mode retains the sliding window (profiles +
// cloud points + DBSCAN index) — O(window) when bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ros/dsp/series_window.hpp"
#include "ros/obs/timer.hpp"
#include "ros/pipeline/incremental_dbscan.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/pipeline/stages.hpp"
#include "ros/scene/tracking.hpp"
#include "ros/tag/codec.hpp"

namespace ros::pipeline {

struct StreamingOptions {
  /// Sliding-window length in frames for full mode: profiles, cloud
  /// points, and DBSCAN membership older than this are evicted. 0 keeps
  /// everything (the Interrogator::run configuration). Ignored in decode
  /// mode, which never retains profiles.
  std::size_t window_frames = 0;
  /// Decode mode: emit the readout as soon as it is provably final
  /// (FoV truncation active, jitter-free tracking, observed-monotone u
  /// past the FoV edge, decoder preconditions met).
  bool early_emit = false;
  /// Keep the per-frame RssSample list in the DecodeDriveResult. false
  /// drops it for bounded-memory soak runs; the decode itself is
  /// unaffected.
  bool retain_samples = true;
};

/// One frame's artifacts in flight between the synthesis stage and the
/// consumer. Decode mode fills `profile`; full mode fills `full`.
struct FramePacket {
  std::size_t index = 0;
  FrameArtifacts full;
  ros::radar::RangeProfile profile;
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
                        const ros::scene::StraightDrive& drive,
                        StreamingOptions opts = {});
  StreamingInterrogator(const InterrogatorConfig&, ros::scene::Scene&&,
                        const ros::scene::StraightDrive&,
                        StreamingOptions = {}) = delete;
  StreamingInterrogator(const InterrogatorConfig&, const ros::scene::Scene&,
                        ros::scene::StraightDrive&&,
                        StreamingOptions = {}) = delete;

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
  const StreamingOptions& options() const { return opts_; }
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

  /// synthesize + consume one frame on the calling thread.
  void push_frame(std::size_t i);

  /// The parallel driver: synthesize every remaining frame in blocks of
  /// kBlockFrames across the exec pool, consuming each block in order.
  void push_all();

  /// Decode mode: true once the early-emit gate fired. The emitted
  /// decode is final — finalize_decode() returns the same bits.
  bool has_emitted() const { return emitted_; }
  std::size_t emit_frame() const;
  const ros::tag::DecodeResult& emitted_decode() const;

  /// Terminal stages. Call exactly once, after the last consume().
  DecodeDriveResult finalize_decode();
  InterrogationReport finalize_report();

 private:
  void begin_read();
  void evict_before(std::size_t min_live_frame);
  void maybe_early_emit(std::size_t frame_index);

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
  bool emit_eligible_ = false;       ///< provability preconditions hold
  bool mono_inc_ok_ = true;          ///< observed u nondecreasing so far
  bool mono_dec_ok_ = true;          ///< observed u nonincreasing so far
  bool saw_inc_ = false;             ///< a strict increase was observed
  bool saw_dec_ = false;             ///< a strict decrease was observed
  double prev_u_ = 0.0;
  bool have_prev_u_ = false;
  bool emitted_ = false;
  std::size_t emit_frame_ = 0;
  ros::tag::DecodeResult emitted_decode_;
  RangeProfilesCapture range_capture_;  ///< built only while probing

  // --- full-mode sliding-window state --------------------------------
  std::deque<ros::radar::RangeProfile> win_profiles_normal_;
  std::deque<ros::radar::RangeProfile> win_profiles_switched_;
  std::deque<ros::scene::RadarPose> win_estimated_;
  std::deque<CloudPoint> win_points_;
  std::deque<std::size_t> win_frame_point_counts_;
  std::size_t win_first_frame_ = 0;   ///< oldest surviving frame index
  std::size_t evicted_points_ = 0;    ///< DBSCAN ids below this are dead
  IncrementalDbscan dbscan_;
  PointCloud scratch_cloud_;          ///< per-frame accumulate target

  // --- telemetry (wall time on the consuming thread) ------------------
  std::optional<ros::obs::ScopedTimer> run_timer_;  ///< whole-read span
  double frames_wall_ms_ = 0.0;  ///< push_all's parallel synthesis blocks
  double track_ms_ = 0.0;        ///< tracking estimate, per frame
  double frame_state_ms_ = 0.0;  ///< spotlight sampling / cloud merge
};

}  // namespace ros::pipeline
