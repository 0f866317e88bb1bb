#include "ros/corridor/session.hpp"

namespace ros::corridor {

void ReadSession::bind(const CorridorSpec& spec, const SessionPlan& plan,
                       const ros::scene::Scene& tag_scene,
                       double begin_ms) {
  plan_ = plan;
  begin_ms_ = begin_ms;
  // Copy-assign reuses capacity; the engine below copies again into its
  // own config, also by assignment on the rebind path.
  config_ = spec.config;
  config_.noise_seed = plan.noise_seed;
  drive_ = ros::scene::StraightDrive(plan.drive);
  if (engine_.has_value()) {
    engine_->rebind(config_, tag_scene, drive_, {0.0, 0.0}, spec.stream);
  } else {
    engine_.emplace(config_, tag_scene, drive_, ros::scene::Vec2{0.0, 0.0},
                    spec.stream);
  }
}

}  // namespace ros::corridor
