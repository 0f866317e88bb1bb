// Recyclable (vehicle, tag) read session (ros::corridor).
//
// A ReadSession owns everything one in-flight read needs with a stable
// address: the tag-local StraightDrive the streaming engine points at,
// the per-session config copy, and the decode-mode
// StreamingInterrogator, whose frames_consumed() is the scheduler's
// cursor. Sessions live on the heap behind unique_ptr (the engine's
// free list), so rebinding one for the next vehicle never moves it.
//
// Recycling contract: the first bind() constructs the engine; every
// later bind() goes through StreamingInterrogator::rebind(), which
// clears-but-never-shrinks, so steady-state vehicle churn performs no
// heap allocation (pinned by tests/corridor/test_corridor_recycle).
#pragma once

#include <optional>

#include "ros/corridor/world.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/scene/trajectory.hpp"

namespace ros::corridor {

class ReadSession {
 public:
  ReadSession() = default;
  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;

  /// Arm this session for `plan`. `tag_scene` must outlive the session
  /// (the corridor engine owns one scene per installation).
  void bind(const CorridorSpec& spec, const SessionPlan& plan,
            const ros::scene::Scene& tag_scene, double begin_ms);

  ros::pipeline::StreamingInterrogator& engine() { return *engine_; }
  const SessionPlan& plan() const { return plan_; }
  double begin_ms() const { return begin_ms_; }

 private:
  std::optional<ros::pipeline::StreamingInterrogator> engine_;
  ros::scene::StraightDrive drive_{ros::scene::StraightDrive::Params{}};
  ros::pipeline::InterrogatorConfig config_;
  SessionPlan plan_;
  double begin_ms_ = 0.0;
};

}  // namespace ros::corridor
