#include "ros/corridor/world.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "ros/common/expect.hpp"
#include "ros/common/random.hpp"
#include "ros/em/material.hpp"
#include "ros/tag/tag.hpp"

namespace ros::corridor {

using ros::common::derive_stream_seed;

namespace {

// Disjoint derive_stream_seed branches off the corridor master seed:
// one feeds per-vehicle parameter streams, the other per-session noise
// streams. Both are then keyed by the stable vehicle id, so the draws
// are invariant under fleet enumeration order.
constexpr std::uint64_t kVehicleBranch = 1;
constexpr std::uint64_t kSessionBranch = 2;

}  // namespace

std::vector<Vehicle> fleet_of(const CorridorSpec& spec) {
  if (!spec.vehicles.empty()) return spec.vehicles;
  const TrafficSpec& t = spec.traffic;
  ROS_EXPECT(t.max_speed_mps >= t.min_speed_mps &&
                 t.min_speed_mps > 0.0,
             "corridor: vehicle speed range must be positive");
  ROS_EXPECT(t.max_lane_m >= t.min_lane_m,
             "corridor: lane range inverted");
  ROS_EXPECT(std::isfinite(t.headway_s) && std::isfinite(t.headway_jitter_s),
             "corridor: headway must be finite");
  const std::uint64_t branch = derive_stream_seed(spec.seed, kVehicleBranch);
  std::vector<Vehicle> fleet;
  fleet.reserve(t.n_vehicles);
  for (std::size_t v = 0; v < t.n_vehicles; ++v) {
    ros::common::Rng rng(derive_stream_seed(branch, v));
    Vehicle veh;
    veh.id = v;
    // Draw order (speed, lane, height, spawn jitter) is part of the
    // determinism contract — reordering it changes every corridor.
    veh.speed_mps = rng.uniform(t.min_speed_mps, t.max_speed_mps);
    veh.lane_m = rng.uniform(t.min_lane_m, t.max_lane_m);
    veh.height_m = t.height_jitter_m > 0.0
                       ? rng.uniform(-t.height_jitter_m, t.height_jitter_m)
                       : 0.0;
    veh.spawn_s = static_cast<double>(v) * t.headway_s +
                  (t.headway_jitter_s > 0.0
                       ? rng.uniform(0.0, t.headway_jitter_s)
                       : 0.0);
    fleet.push_back(veh);
  }
  return fleet;
}

std::uint64_t session_noise_seed(std::uint64_t corridor_seed,
                                 std::uint64_t vehicle_id,
                                 std::size_t tag_index) {
  return derive_stream_seed(
      derive_stream_seed(derive_stream_seed(corridor_seed, kSessionBranch),
                         vehicle_id),
      tag_index);
}

std::vector<SessionPlan> plan_sessions(const CorridorSpec& spec) {
  ROS_EXPECT(!spec.tags.empty(), "corridor: no tag installations");
  ROS_EXPECT(spec.tick_s > 0.0 && std::isfinite(spec.tick_s),
             "corridor: tick_s must be positive and finite");
  const std::vector<Vehicle> fleet = fleet_of(spec);
  std::vector<SessionPlan> plans;
  plans.reserve(fleet.size() * spec.tags.size());
  double last_end_s = 0.0;
  for (const Vehicle& veh : fleet) {
    ROS_EXPECT(veh.speed_mps > 0.0 && std::isfinite(veh.speed_mps) &&
                   std::isfinite(veh.spawn_s),
               "corridor: vehicle speed must be positive and finite");
    for (std::size_t t = 0; t < spec.tags.size(); ++t) {
      const TagSpec& tag = spec.tags[t];
      ROS_EXPECT(tag.capture_half_span_m > 0.0 &&
                     std::isfinite(tag.capture_half_span_m) &&
                     std::isfinite(tag.position_m),
                 "corridor: capture span must be positive and finite");
      ROS_EXPECT(tag.position_m >= tag.capture_half_span_m,
                 "corridor: tag capture span starts before the segment");
      SessionPlan plan;
      plan.vehicle_id = veh.id;
      plan.tag_index = t;
      // The vehicle reaches x = position - half_span at this instant;
      // the session's tag-local drive then covers [-h, +h].
      plan.start_s = veh.spawn_s +
                     (tag.position_m - tag.capture_half_span_m) /
                         veh.speed_mps;
      plan.duration_s = 2.0 * tag.capture_half_span_m / veh.speed_mps;
      plan.noise_seed = session_noise_seed(spec.seed, veh.id, t);
      plan.drive = {.lane_offset_m = veh.lane_m,
                    .speed_mps = veh.speed_mps,
                    .start_x_m = -tag.capture_half_span_m,
                    .end_x_m = tag.capture_half_span_m,
                    .radar_height_m = veh.height_m};
      plans.push_back(plan);
      last_end_s = std::max(last_end_s, plan.start_s + plan.duration_s);
    }
  }
  // StraightDrive::frame_count's rule, applied to ticks: the scheduler
  // counts ticks in an integer and converts start / tick_s to one.
  const double n_ticks = std::floor(last_end_s / spec.tick_s) + 1.0;
  ROS_EXPECT(std::isfinite(n_ticks) && n_ticks < 0x1p53,
             "corridor: tick_s is too short for the corridor's duration");
  // (start, vehicle id, tag index) is a total order over sessions that
  // never consults list position — the scheduler, the free-list, and
  // the result records all inherit permutation invariance from it.
  std::sort(plans.begin(), plans.end(),
            [](const SessionPlan& a, const SessionPlan& b) {
              return std::tie(a.start_s, a.vehicle_id, a.tag_index) <
                     std::tie(b.start_s, b.vehicle_id, b.tag_index);
            });
  return plans;
}

ros::scene::Scene tag_scene_of(const TagSpec& tag,
                               ros::scene::Weather weather) {
  static const ros::em::StriplineStackup stackup =
      ros::em::StriplineStackup::ros_default();
  ros::scene::Scene world(weather);
  world.add_tag(ros::tag::make_default_tag(tag.bits, &stackup,
                                           tag.psvaas_per_stack,
                                           tag.beam_shaped),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  return world;
}

ros::pipeline::InterrogatorConfig session_config(const CorridorSpec& spec,
                                                 const SessionPlan& plan) {
  ros::pipeline::InterrogatorConfig config = spec.config;
  config.noise_seed = plan.noise_seed;
  return config;
}

ros::pipeline::DecodeDriveResult standalone_read(const CorridorSpec& spec,
                                                 const SessionPlan& plan) {
  const ros::scene::Scene world =
      tag_scene_of(spec.tags[plan.tag_index], spec.weather);
  const ros::scene::StraightDrive drive(plan.drive);
  return ros::pipeline::decode_drive(world, drive, {0.0, 0.0},
                                     session_config(spec, plan));
}

}  // namespace ros::corridor
