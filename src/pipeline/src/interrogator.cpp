#include "ros/pipeline/interrogator.hpp"

#include <cmath>

#include "ros/common/expect.hpp"
#include "ros/pipeline/streaming.hpp"

namespace ros::pipeline {

void validate(const InterrogatorConfig& config) {
  ROS_EXPECT(config.frame_stride >= 1, "frame stride must be >= 1");
  ROS_EXPECT(config.dbscan.eps_m > 0.0, "DBSCAN eps must be > 0");
  ROS_EXPECT(config.dbscan.min_points > 0,
             "DBSCAN min_points must be > 0");
  ROS_EXPECT(std::isfinite(config.decode_fov_rad) &&
                 config.decode_fov_rad >= 0.0,
             "decode FoV must be finite and >= 0 (0 disables truncation)");
  // RadarArray::element_field compares |az| against the FoV: a NaN FoV
  // would switch the limit off and a FoV <= 0 would zero every return.
  ROS_EXPECT(std::isfinite(config.array.fov_half_angle_rad) &&
                 config.array.fov_half_angle_rad > 0.0,
             "radar FoV half angle must be finite and > 0");
  ROS_EXPECT(std::isfinite(config.array.pattern_exponent) &&
                 config.array.pattern_exponent >= 0.0,
             "radar pattern exponent must be finite and >= 0");
  ROS_EXPECT(std::isfinite(config.array.rx_spacing_m) &&
                 config.array.rx_spacing_m >= 0.0,
             "Rx spacing must be finite and >= 0 (0 means lambda/2)");
}

Interrogator::Interrogator(InterrogatorConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

InterrogationReport Interrogator::run(
    const ros::scene::Scene& scene,
    const ros::scene::StraightDrive& drive) const {
  StreamingInterrogator engine(config_, scene, drive);
  engine.push_all();
  return engine.finalize_report();
}

DecodeDriveResult decode_drive(const ros::scene::Scene& scene,
                               const ros::scene::StraightDrive& drive,
                               const ros::scene::Vec2& tag_position,
                               const InterrogatorConfig& config) {
  StreamingInterrogator engine(config, scene, drive, tag_position);
  engine.push_all();
  return engine.finalize_decode();
}

}  // namespace ros::pipeline
