// Vehicle trajectories (paper Sec. 7.1: straight drive-bys past the tag
// at 1-6 m lateral distance, 10-30 mph, or a manually moved cart).
#pragma once

#include <cstddef>
#include <vector>

#include "ros/scene/geometry.hpp"

namespace ros::scene {

/// Straight drive along +x at a fixed lateral distance from the tag
/// plane (the tag sits at the origin facing +y). The radar is
/// side-looking (boresight -y, toward the roadside) by default, matching
/// the paper's cart/vehicle setup where the tag stays in view throughout
/// the pass.
class StraightDrive {
 public:
  /// Every field must be finite (the constructor throws otherwise).
  struct Params {
    double lane_offset_m = 3.0;   ///< perpendicular tag-to-path distance
    double speed_mps = 2.0;
    double start_x_m = -3.0;
    double end_x_m = 3.0;
    double radar_height_m = 0.0;  ///< relative to the tag center plane
    /// Radar boresight; 0 = side-looking (-y).
    Vec2 boresight{0.0, -1.0};
  };

  explicit StraightDrive(Params p);

  const Params& params() const { return params_; }

  double duration_s() const;

  RadarPose pose_at(double t_s) const;

  /// Vehicle velocity vector [m/s].
  Vec2 velocity() const { return {params_.speed_mps, 0.0}; }

  /// Frames the drive yields at `frame_rate_hz`: floor(T * rate) + 1.
  /// Throws when the rate is not positive or the count is not finite or
  /// reaches 2^53 (where size_t conversion would be undefined or inexact).
  std::size_t frame_count(double frame_rate_hz) const;

  /// Ground-truth radar poses at the radar frame rate.
  std::vector<RadarPose> frames(double frame_rate_hz) const;

 private:
  Params params_;
};

}  // namespace ros::scene
