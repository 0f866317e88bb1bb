// End-to-end tag interrogation (paper Sec. 6): drive past the scene,
// synthesize every radar frame in both Tx polarizations, build the
// point cloud, cluster, discriminate the tag, spotlight-sample its RCS,
// and decode the bits.
#pragma once

#include <cstdint>
#include <vector>

#include "ros/pipeline/features.hpp"
#include "ros/pipeline/pointcloud.hpp"
#include "ros/pipeline/rcs_sampler.hpp"
#include "ros/pipeline/tag_detector.hpp"
#include "ros/pipeline/telemetry.hpp"
#include "ros/radar/arrays.hpp"
#include "ros/radar/chirp.hpp"
#include "ros/radar/processing.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/tracking.hpp"
#include "ros/scene/trajectory.hpp"
#include "ros/tag/codec.hpp"
#include "ros/tag/link_budget.hpp"

namespace ros::pipeline {

struct InterrogatorConfig {
  ros::radar::FmcwChirp chirp = ros::radar::FmcwChirp::ti_iwr1443();
  ros::radar::RadarArray array = ros::radar::RadarArray::ti_iwr1443();
  ros::tag::RadarLinkBudget budget = ros::tag::RadarLinkBudget::ti_iwr1443();
  ros::radar::DetectorOptions detector{};
  DbscanOptions dbscan{0.35, 6};
  TagDetectorOptions tag_detector{};
  ros::tag::DecoderConfig decoder{};
  ros::scene::TrackingModel::Params tracking{};
  /// Angular-FoV truncation for decoding: keep |u| <= sin(fov/2).
  /// 0 disables truncation (Fig. 17 sweeps this).
  double decode_fov_rad = 0.0;
  /// Only decode every k-th frame (speeds up large sweeps; 1 = all).
  int frame_stride = 1;
  /// Additional noise floor [dBm] from external interference (e.g. an
  /// adjacent radar, Fig. 16b). Combined in power with the thermal
  /// floor; <= -200 disables it.
  double extra_noise_dbm = -300.0;
  /// Master noise seed. Frame i draws from the counter-derived stream
  /// derive_stream_seed(noise_seed, i), so the frame loop parallelizes
  /// over ros::exec without changing any output: results are identical
  /// at every ROS_THREADS setting.
  std::uint64_t noise_seed = 1;
};

/// Throw std::invalid_argument (via ROS_EXPECT) when `config` holds
/// values the pipeline would silently misbehave on: frame_stride < 1,
/// non-positive DBSCAN eps / min_points, a non-finite / negative
/// decode FoV, or a radar array whose FoV half angle is not finite and
/// > 0 or whose pattern exponent or Rx spacing is not finite and >= 0.
/// Called by the Interrogator constructor, by every
/// StreamingInterrogator (so decode_drive validates before synthesis)
/// and by the CorridorEngine constructor.
void validate(const InterrogatorConfig& config);

/// One decoded tag candidate.
struct TagReadout {
  TagCandidate candidate;
  ros::tag::DecodeResult decode;
  std::vector<RssSample> samples;  ///< switched-pass RSS over the drive
};

struct InterrogationReport {
  std::size_t n_frames = 0;
  PointCloud cloud;                     ///< detection (normal-Tx) pass
  std::vector<Cluster> clusters;        ///< dense clusters
  std::vector<TagCandidate> candidates; ///< all classified clusters
  std::vector<TagReadout> tags;         ///< decoded tag candidates
  PipelineTelemetry telemetry;          ///< stage timings + funnel counts
};

class Interrogator {
 public:
  explicit Interrogator(InterrogatorConfig config = {});

  const InterrogatorConfig& config() const { return config_; }

  /// Run the full pipeline over one drive-by: a StreamingInterrogator in
  /// full mode with an unbounded window, driven by push_all().
  InterrogationReport run(const ros::scene::Scene& scene,
                          const ros::scene::StraightDrive& drive) const;

 private:
  InterrogatorConfig config_;
};

/// Decode-only drive-by: assumes the tag at `tag_position` has already
/// been detected (e.g. on a previous pass) and skips point-cloud
/// processing, running only the switched-Tx spotlight sampling and the
/// spatial decoder. Fast enough to run at the full 1 kHz frame rate,
/// which the micro-benchmark sweeps (Figs. 14-18) need for their
/// spectral noise floor. A decode-mode StreamingInterrogator driven by
/// push_all().
struct DecodeDriveResult {
  std::vector<RssSample> samples;
  ros::tag::DecodeResult decode;
  double mean_rss_dbm = 0.0;  ///< mean spotlighted RSS over the pass
  PipelineTelemetry telemetry;
};

DecodeDriveResult decode_drive(const ros::scene::Scene& scene,
                               const ros::scene::StraightDrive& drive,
                               const ros::scene::Vec2& tag_position,
                               const InterrogatorConfig& config = {});

}  // namespace ros::pipeline
