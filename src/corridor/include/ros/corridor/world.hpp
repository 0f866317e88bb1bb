// Corridor world model (ros::corridor).
//
// A corridor is a straight road segment instrumented with N RoS tag
// installations, traversed by a fleet of vehicles. Each vehicle enters
// at x = 0 with a per-vehicle speed / lane offset / radar height drawn
// from its OWN counter-based RNG stream (keyed by the stable vehicle
// id, never by list position), so the generated traffic — and
// everything downstream of it — is independent of enumeration order
// and thread count.
//
// Interrogation model: tags are side-mounted and read independently —
// each (vehicle, tag) pair whose pass crosses the tag's capture span
// becomes one decode-mode streaming session, expressed in TAG-LOCAL
// coordinates (tag at the origin facing +y, exactly the geometry
// `decode_drive` is specified in). That choice is what makes the
// corridor's fidelity law exact: every corridor readout must equal the
// same session run standalone through `decode_drive`, bit for bit.
// Cross-vehicle interference is deliberately out of scope here
// (ROADMAP #4 layers it on top of this runtime).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/trajectory.hpp"

namespace ros::corridor {

/// One roadside tag installation.
struct TagSpec {
  /// Along-segment position of the installation [m] (vehicles enter at
  /// x = 0 and drive toward +x).
  double position_m = 0.0;
  /// OOK payload carried by the tag's spatial code.
  std::vector<bool> bits = {true, false, true, true};
  int psvaas_per_stack = 32;
  bool beam_shaped = true;
  /// A session covers x in [position_m - half_span, position_m +
  /// half_span] of the vehicle's pass — the capture aperture.
  double capture_half_span_m = 2.5;
};

/// Fleet statistics; every vehicle's parameters are drawn from its own
/// id-keyed RNG stream inside these bounds.
struct TrafficSpec {
  std::size_t n_vehicles = 100;
  /// Deterministic spawn cadence: vehicle v enters at
  /// v * headway_s + U(0, headway_jitter_s) from its own stream.
  double headway_s = 0.05;
  double headway_jitter_s = 0.0;
  double min_speed_mps = 1.5;
  double max_speed_mps = 2.5;
  double min_lane_m = 2.7;
  double max_lane_m = 3.3;
  /// Radar mounting-height jitter, +/- uniform [m].
  double height_jitter_m = 0.0;
};

struct Vehicle {
  std::uint64_t id = 0;
  double spawn_s = 0.0;
  double speed_mps = 2.0;
  double lane_m = 3.0;
  double height_m = 0.0;
};

struct CorridorSpec {
  /// Vehicles despawn once past the last tag's capture span; the
  /// segment length only bounds tag placement.
  double segment_length_m = 10.0;
  std::vector<TagSpec> tags;
  TrafficSpec traffic;
  /// Explicit fleet override: when non-empty, used verbatim instead of
  /// generating from `traffic` (the spawn-permutation tests feed
  /// shuffled copies through this).
  std::vector<Vehicle> vehicles;
  /// Master seed; vehicle-parameter and session-noise streams are both
  /// derived from it through disjoint `derive_stream_seed` branches.
  std::uint64_t seed = 1;
  ros::scene::Weather weather = ros::scene::Weather::clear;
  /// Base interrogator config; each session gets a copy with its own
  /// derived noise_seed.
  ros::pipeline::InterrogatorConfig config;
  /// Streaming options for every session. retain_samples defaults off:
  /// a soak run must not hold O(total frames) of sample history.
  ros::pipeline::StreamingOptions stream{.retain_samples = false};
  /// Scheduler time slice [s of simulated time].
  double tick_s = 0.05;
};

/// One planned (vehicle, tag) read, fully determined by the spec: the
/// session's tag-local drive, start time, and derived noise seed. Plans
/// are sorted by (start_s, vehicle_id, tag_index), so their order — and
/// the order of the result records — is invariant under any permutation
/// of the input vehicle list.
struct SessionPlan {
  std::uint64_t vehicle_id = 0;
  std::size_t tag_index = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::uint64_t noise_seed = 0;
  ros::scene::StraightDrive::Params drive;
};

/// The fleet for `spec`: `spec.vehicles` verbatim when non-empty, else
/// `spec.traffic.n_vehicles` generated from per-id RNG streams.
std::vector<Vehicle> fleet_of(const CorridorSpec& spec);

/// Every (vehicle, tag) session the corridor will run, sorted by
/// (start_s, vehicle_id, tag_index).
std::vector<SessionPlan> plan_sessions(const CorridorSpec& spec);

/// The session's noise seed: seed -> branch 2 -> vehicle id -> tag
/// index, all through derive_stream_seed (branch 1 feeds vehicle
/// parameter generation, so the two never collide).
std::uint64_t session_noise_seed(std::uint64_t corridor_seed,
                                 std::uint64_t vehicle_id,
                                 std::size_t tag_index);

/// Tag-local scene for installation `tag` (tag at the origin facing
/// +y). Built once per installation and shared by every session that
/// reads it.
ros::scene::Scene tag_scene_of(const TagSpec& tag,
                               ros::scene::Weather weather);

/// The session's interrogator config: `spec.config` with the derived
/// per-session noise seed.
ros::pipeline::InterrogatorConfig session_config(
    const CorridorSpec& spec, const SessionPlan& plan);

/// Reference implementation of one session: the same read run
/// standalone through the batch `decode_drive`. The corridor engine's
/// output must equal this bit for bit — the fidelity law the tests,
/// bench, and roztest oracle all check.
ros::pipeline::DecodeDriveResult standalone_read(
    const CorridorSpec& spec, const SessionPlan& plan);

}  // namespace ros::corridor
