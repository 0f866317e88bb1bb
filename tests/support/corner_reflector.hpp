// Trihedral corner reflector: the classic retroreflective calibration
// target (paper Sec. 2 cites corner reflectors as the best-known
// retro-directive antenna). Its RCS has a closed form,
//
//   sigma_peak = 4 pi a^4 / (3 lambda^2)
//
// for edge length a, and it stays retroreflective over a wide angular
// cone -- which makes it the reference object for validating the whole
// simulation chain (radar equation -> waveform -> FFT -> beamformed RSS)
// against an analytically known target. No pipeline path places one, so
// it lives with the tests as a calibration fixture.
#pragma once

#include <string>

#include "ros/scene/objects.hpp"

namespace ros::scene {

class CornerReflector final : public SceneObject {
 public:
  struct Params {
    Vec2 position{};
    double edge_m = 0.05;          ///< trihedral edge length a
    double height_m = 0.0;         ///< center height vs radar plane
    /// Angular response half-width (trihedral: ~20-25 deg to -3 dB).
    double fov_half_angle_rad = 0.6;
    /// Facing direction (peak response axis).
    Vec2 boresight{0.0, 1.0};
    double cross_rejection_db = 25.0;  ///< machined metal: clean
    std::string name = "corner_reflector";
  };

  explicit CornerReflector(Params p);

  /// Peak RCS from the closed form [dBsm].
  double peak_rcs_dbsm(double hz) const;

  std::string_view name() const override { return params_.name; }
  Vec2 position() const override { return params_.position; }
  void scatter_into(const RadarPose& pose, double hz, ros::common::Rng& rng,
                    std::vector<ScatterPoint>& out) const override;

 private:
  Params params_;
};

}  // namespace ros::scene
