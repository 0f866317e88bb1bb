#include "corner_reflector.hpp"

#include <cmath>

#include "ros/antenna/scattering.hpp"
#include "ros/common/expect.hpp"
#include "ros/common/units.hpp"

namespace ros::scene {

using namespace ros::common;

CornerReflector::CornerReflector(Params p) : params_(std::move(p)) {
  ROS_EXPECT(params_.edge_m > 0.0, "edge length must be positive");
  ROS_EXPECT(params_.fov_half_angle_rad > 0.0, "FoV must be positive");
  const double n = params_.boresight.norm();
  ROS_EXPECT(n > 0.0, "boresight must be non-zero");
  params_.boresight = params_.boresight * (1.0 / n);
}

double CornerReflector::peak_rcs_dbsm(double hz) const {
  const double lambda = wavelength(hz);
  const double a = params_.edge_m;
  return linear_to_db(4.0 * kPi * a * a * a * a / (3.0 * lambda * lambda));
}

void CornerReflector::scatter_into(const RadarPose& pose, double hz,
                                   Rng& /*rng*/,
                                   std::vector<ScatterPoint>& out) const {
  const Vec2 d = pose.position - params_.position;
  const double dist = d.norm();
  if (dist <= 0.0) return;
  // Angle off the reflector's boresight.
  const double cosang = params_.boresight.dot(d) / dist;
  if (cosang <= 0.0) return;
  const double ang = std::acos(std::min(1.0, cosang));
  if (ang > 2.0 * params_.fov_half_angle_rad) return;
  // Gaussian-like angular rolloff, -3 dB at the half-angle.
  const double rel = ang / params_.fov_half_angle_rad;
  const double pattern_db = -3.0 * rel * rel;
  const double sigma_dbsm = peak_rcs_dbsm(hz) + pattern_db;

  ScatterPoint p;
  p.position = params_.position;
  p.height_m = params_.height_m;
  const double amp =
      ros::antenna::scattering_length_for_rcs_dbsm(sigma_dbsm);
  p.s = ros::em::ScatterMatrix::co_polarized(amp,
                                             params_.cross_rejection_db);
  out.push_back(p);
}

}  // namespace ros::scene
