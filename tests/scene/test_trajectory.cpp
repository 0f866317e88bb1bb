#include "ros/scene/trajectory.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace rs = ros::scene;

TEST(Trajectory, DurationAndPoses) {
  rs::StraightDrive drive({.lane_offset_m = 3.0,
                           .speed_mps = 2.0,
                           .start_x_m = -4.0,
                           .end_x_m = 4.0});
  EXPECT_DOUBLE_EQ(drive.duration_s(), 4.0);
  const auto p0 = drive.pose_at(0.0);
  EXPECT_DOUBLE_EQ(p0.position.x, -4.0);
  EXPECT_DOUBLE_EQ(p0.position.y, 3.0);
  const auto p2 = drive.pose_at(2.0);
  EXPECT_DOUBLE_EQ(p2.position.x, 0.0);
}

TEST(Trajectory, VelocityCarriedInPose) {
  rs::StraightDrive drive({.speed_mps = 5.0});
  const auto p = drive.pose_at(0.1);
  EXPECT_DOUBLE_EQ(p.velocity.x, 5.0);
  EXPECT_DOUBLE_EQ(p.velocity.y, 0.0);
}

TEST(Trajectory, FramesAtRate) {
  rs::StraightDrive drive({.lane_offset_m = 3.0,
                           .speed_mps = 2.0,
                           .start_x_m = 0.0,
                           .end_x_m = 2.0});
  const auto frames = drive.frames(100.0);
  EXPECT_EQ(frames.size(), 101u);
  EXPECT_NEAR(frames[50].position.x, 1.0, 1e-9);
  EXPECT_NEAR(frames[1].time_s - frames[0].time_s, 0.01, 1e-12);
}

TEST(Trajectory, BoresightNormalized) {
  rs::StraightDrive drive({.boresight = {0.0, -5.0}});
  EXPECT_NEAR(drive.pose_at(0.0).boresight.norm(), 1.0, 1e-12);
}

TEST(Trajectory, RadarHeightPropagates) {
  rs::StraightDrive drive({.radar_height_m = 0.25});
  EXPECT_DOUBLE_EQ(drive.pose_at(1.0).height_m, 0.25);
}

TEST(Trajectory, InvalidParamsThrow) {
  EXPECT_THROW(rs::StraightDrive({.speed_mps = 0.0}), std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.start_x_m = 2.0, .end_x_m = -2.0}),
               std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.lane_offset_m = -1.0}),
               std::invalid_argument);
  rs::StraightDrive ok({});
  EXPECT_THROW(ok.frames(0.0), std::invalid_argument);
}

TEST(Trajectory, NonFiniteParamsThrow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(rs::StraightDrive({.end_x_m = inf}), std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.start_x_m = -inf}),
               std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.radar_height_m = nan}),
               std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.lane_offset_m = inf}),
               std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.speed_mps = inf}), std::invalid_argument);
  EXPECT_THROW(rs::StraightDrive({.boresight = {nan, -1.0}}),
               std::invalid_argument);
}

TEST(Trajectory, FrameCountRejectsUnrepresentableCounts) {
  rs::StraightDrive drive({.lane_offset_m = 3.0,
                           .speed_mps = 2.0,
                           .start_x_m = 0.0,
                           .end_x_m = 2.0});
  EXPECT_EQ(drive.frame_count(100.0), 101u);
  EXPECT_EQ(drive.frame_count(100.0), drive.frames(100.0).size());
  EXPECT_THROW((void)drive.frame_count(0.0), std::invalid_argument);
  EXPECT_THROW((void)drive.frame_count(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)drive.frame_count(
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // A crawl at 1e-300 m/s lasts 6e300 s: far past 2^53 frames.
  rs::StraightDrive crawl({.speed_mps = 1e-300});
  EXPECT_THROW((void)crawl.frame_count(1000.0), std::invalid_argument);
  EXPECT_THROW((void)crawl.frames(1000.0), std::invalid_argument);
}
