#include "ros/scene/trajectory.hpp"

#include <cmath>

#include "ros/common/expect.hpp"

namespace ros::scene {

StraightDrive::StraightDrive(Params p) : params_(p) {
  ROS_EXPECT(std::isfinite(p.lane_offset_m) && std::isfinite(p.speed_mps) &&
                 std::isfinite(p.start_x_m) && std::isfinite(p.end_x_m) &&
                 std::isfinite(p.radar_height_m) &&
                 std::isfinite(p.boresight.x) &&
                 std::isfinite(p.boresight.y),
             "drive parameters must be finite");
  ROS_EXPECT(p.speed_mps > 0.0, "speed must be positive");
  ROS_EXPECT(p.end_x_m > p.start_x_m, "path must have positive length");
  ROS_EXPECT(p.lane_offset_m > 0.0, "lane offset must be positive");
  const double n = params_.boresight.norm();
  ROS_EXPECT(n > 0.0, "boresight must be non-zero");
  params_.boresight = params_.boresight * (1.0 / n);
}

double StraightDrive::duration_s() const {
  return (params_.end_x_m - params_.start_x_m) / params_.speed_mps;
}

RadarPose StraightDrive::pose_at(double t_s) const {
  RadarPose pose;
  pose.position = {params_.start_x_m + params_.speed_mps * t_s,
                   params_.lane_offset_m};
  pose.boresight = params_.boresight;
  pose.velocity = velocity();
  pose.height_m = params_.radar_height_m;
  pose.time_s = t_s;
  return pose;
}

std::size_t StraightDrive::frame_count(double frame_rate_hz) const {
  ROS_EXPECT(frame_rate_hz > 0.0, "frame rate must be positive");
  const double n = std::floor(duration_s() * frame_rate_hz) + 1.0;
  ROS_EXPECT(std::isfinite(n) && n < 0x1p53,
             "drive yields too many frames at this rate");
  return static_cast<std::size_t>(n);
}

std::vector<RadarPose> StraightDrive::frames(double frame_rate_hz) const {
  std::vector<RadarPose> out;
  const std::size_t n = frame_count(frame_rate_hz);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(pose_at(static_cast<double>(i) / frame_rate_hz));
  }
  return out;
}

}  // namespace ros::scene
