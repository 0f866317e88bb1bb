// Decode-forensics glue between the interrogation pipeline and the
// domain-agnostic ros::obs::probe layer: the config digest that ties a
// provenance bundle to the exact experiment it came from, and bounded
// JSON serializers for the per-stage artifacts the probe captures
// (range-FFT summaries, point cloud, cluster assignments, decoder
// samples, coding-band spectrum, per-bit decision margins).
//
// Everything here is only invoked while a read is being captured
// (ros::obs::probe::capturing()), so it may allocate freely; the
// disarmed hot path never reaches these functions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ros/dsp/spectrum.hpp"
#include "ros/pipeline/interrogator.hpp"

namespace ros::pipeline {

/// Stable FNV-1a digest over every decode-relevant InterrogatorConfig
/// field (chirp, array geometry, budget, detector, DBSCAN, decoder,
/// tracking, FoV, stride, noise). Two configs with the same digest
/// produce bit-identical reads from the same scene + drive + seed; the
/// digest in a bundle lets rostriage refuse to "replay" against a
/// different experiment.
std::uint64_t config_digest(const InterrogatorConfig& config);

/// Decoder input series: u / RSS per kept sample, decimated to at most
/// `max_points` (stride recorded in the artifact).
std::string samples_json(std::span<const RssSample> samples,
                         std::size_t max_points = 2048);

/// Coding-band spectrum: spacing axis + amplitude, decimated to at most
/// `max_points`, plus span/resolution.
std::string spectrum_json(const ros::dsp::RcsSpectrum& spectrum,
                          std::size_t max_points = 1024);

/// rcs_spectrum() intermediates captured via ros::dsp::SpectrumTap.
std::string spectrum_tap_json(const ros::dsp::SpectrumTap& tap);

/// Per-bit decision margins: slot spacing, normalized amplitude,
/// modulation depth, both thresholds, margin, decided bit.
std::string bit_margins_json(const ros::tag::DecodeResult& decode,
                             const ros::tag::DecoderConfig& config);

/// Detection-pass point cloud, decimated to at most `max_points`.
std::string pointcloud_json(const PointCloud& cloud,
                            std::size_t max_points = 4096);

/// DBSCAN cluster assignment + per-cluster features; member point
/// indices bounded to `max_indices_per_cluster`.
std::string clusters_json(std::span<const Cluster> clusters,
                          std::size_t max_indices_per_cluster = 512);

/// Classified candidates (RSS-loss discrimination verdicts).
std::string candidates_json(std::span<const TagCandidate> candidates);

/// Range-FFT stage summary: per-frame peak power (decimated) plus full
/// magnitude snapshots of up to `max_snapshots` representative frames
/// (first / middle / last), each downsampled to `max_bins`.
std::string range_profiles_json(
    std::span<const ros::radar::RangeProfile> profiles,
    std::uint64_t noise_seed, std::size_t max_snapshots = 3,
    std::size_t max_bins = 256, std::size_t max_frames = 2048);

/// The incremental form of range_profiles_json: begin() with the frame
/// count, add() every frame in order, and json() yields exactly what
/// range_profiles_json returns over the same profiles — without
/// retaining them (only the decimated peaks and the snapshot frames'
/// power are kept).
class RangeProfilesCapture {
 public:
  void begin(std::size_t n_frames, std::uint64_t noise_seed,
             std::size_t max_snapshots = 3, std::size_t max_bins = 256,
             std::size_t max_frames = 2048);
  void add(std::size_t i, const ros::radar::RangeProfile& profile);
  std::string json() const;

 private:
  struct Snapshot {
    std::size_t frame = 0;
    double bin_spacing_m = 0.0;
    std::size_t bin_stride = 1;
    std::vector<double> power;
  };

  std::size_t n_frames_ = 0;
  std::uint64_t noise_seed_ = 0;
  std::size_t max_bins_ = 256;
  std::size_t frame_stride_ = 1;
  std::vector<std::size_t> picks_;
  std::vector<double> peak_power_;
  std::vector<Snapshot> snapshots_;
};

/// Annotate the pending read with the runtime that produced it:
/// ros::exec thread count and active ros::simd backend. These must NOT
/// change replay results (replay determinism tests sweep them).
void annotate_probe_runtime();

}  // namespace ros::pipeline
