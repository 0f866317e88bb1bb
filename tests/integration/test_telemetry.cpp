// PipelineTelemetry: stage timings and funnel counts attached to every
// interrogation run, plus the InterrogatorConfig validation added with
// the observability subsystem.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "ros/obs/metrics.hpp"
#include "ros/pipeline/interrogator.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;

namespace {

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

rs::Scene tag_world(const std::vector<bool>& bits) {
  rs::Scene world;
  world.add_tag(rt::make_default_tag(bits, &stackup(), 32, true),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  return world;
}

rs::StraightDrive default_drive() {
  return rs::StraightDrive({.lane_offset_m = 3.0,
                            .speed_mps = 2.0,
                            .start_x_m = -2.5,
                            .end_x_m = 2.5});
}

rp::InterrogatorConfig fast_config() {
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;  // 100 Hz effective: plenty for telemetry checks
  return cfg;
}

}  // namespace

TEST(PipelineTelemetry, FullRunPopulatesFunnelAndStages) {
  const rs::Scene world = tag_world({true, false, true, true});
  const rp::Interrogator inter(fast_config());
  const auto report = inter.run(world, default_drive());
  const auto& tel = report.telemetry;

  EXPECT_EQ(tel.n_frames, report.n_frames);
  EXPECT_EQ(tel.n_points, report.cloud.points.size());
  EXPECT_EQ(tel.n_clusters, report.clusters.size());
  EXPECT_EQ(tel.n_candidates, report.candidates.size());
  EXPECT_EQ(tel.n_tags, report.tags.size());
  EXPECT_GE(tel.n_tags, 1u);

  // The funnel can only narrow.
  EXPECT_TRUE(tel.funnel_consistent());
  EXPECT_GE(tel.n_points, tel.n_clusters);
  EXPECT_GE(tel.n_clusters, tel.n_candidates);
  EXPECT_GE(tel.n_candidates, tel.n_tags);

  // Every pipeline stage booked some time, and stage times fit in the
  // total.
  double stage_sum = 0.0;
  for (const char* stage : {"track", "synthesize", "range_fft",
                            "detect_points", "cluster", "discriminate",
                            "decode"}) {
    EXPECT_GT(tel.stage_ms(stage), 0.0) << "stage " << stage;
    stage_sum += tel.stage_ms(stage);
  }
  EXPECT_GT(tel.total_ms, 0.0);
  EXPECT_LE(stage_sum, tel.total_ms * 1.05);

  // One decode-quality record per decoded tag, with finite OOK numbers
  // (bits 1011 contain both symbol classes).
  ASSERT_EQ(tel.tags.size(), report.tags.size());
  const auto& q = tel.tags.front();
  EXPECT_TRUE(std::isfinite(q.snr_db));
  EXPECT_GE(q.ber, 0.0);
  EXPECT_LE(q.ber, 0.5);
  EXPECT_GT(q.n_samples, 0u);
  EXPECT_EQ(q.bits, report.tags.front().decode.bits);
}

TEST(PipelineTelemetry, JsonSerializesFunnelAndStages) {
  const rs::Scene world = tag_world({true, false, true, true});
  const rp::Interrogator inter(fast_config());
  const auto report = inter.run(world, default_drive());
  const std::string json = report.telemetry.to_json();
  EXPECT_NE(json.find("\"funnel\""), std::string::npos);
  EXPECT_NE(json.find("\"stages_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"snr_db\""), std::string::npos);
}

TEST(PipelineTelemetry, EmptySceneFunnelIsConsistentAllZero) {
  const rs::Scene world;
  const rp::Interrogator inter(fast_config());
  const auto report = inter.run(world, default_drive());
  const auto& tel = report.telemetry;
  EXPECT_GT(tel.n_frames, 0u);
  EXPECT_EQ(tel.n_tags, 0u);
  EXPECT_TRUE(tel.funnel_consistent());
  EXPECT_TRUE(tel.tags.empty());
}

TEST(PipelineTelemetry, DecodeDrivePopulatesTelemetry) {
  const std::vector<bool> truth = {true, false, true, true};
  const rs::Scene world = tag_world(truth);
  const auto result =
      rp::decode_drive(world, default_drive(), {0.0, 0.0}, fast_config());
  const auto& tel = result.telemetry;

  EXPECT_GT(tel.n_frames, 0u);
  EXPECT_EQ(tel.n_tags, 1u);
  EXPECT_TRUE(tel.funnel_consistent());
  for (const char* stage :
       {"track", "synthesize", "range_fft", "sample_rss", "decode"}) {
    EXPECT_GT(tel.stage_ms(stage), 0.0) << "stage " << stage;
  }
  ASSERT_EQ(tel.tags.size(), 1u);
  EXPECT_EQ(tel.tags.front().n_samples, result.samples.size());
  EXPECT_NEAR(tel.tags.front().mean_rss_dbm, result.mean_rss_dbm, 1e-9);
}

TEST(InterrogatorConfigValidation, RejectsBadValues) {
  {
    rp::InterrogatorConfig cfg;
    cfg.frame_stride = 0;
    EXPECT_THROW(rp::Interrogator{cfg}, std::invalid_argument);
  }
  {
    rp::InterrogatorConfig cfg;
    cfg.dbscan.eps_m = 0.0;
    EXPECT_THROW(rp::Interrogator{cfg}, std::invalid_argument);
  }
  {
    rp::InterrogatorConfig cfg;
    cfg.dbscan.min_points = 0;
    EXPECT_THROW(rp::Interrogator{cfg}, std::invalid_argument);
  }
  {
    rp::InterrogatorConfig cfg;
    cfg.decode_fov_rad = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(rp::Interrogator{cfg}, std::invalid_argument);
  }
  {
    rp::InterrogatorConfig cfg;
    cfg.decode_fov_rad = -0.1;
    EXPECT_THROW(rp::Interrogator{cfg}, std::invalid_argument);
  }
  // decode_drive validates too, before any frame synthesis.
  {
    rp::InterrogatorConfig cfg;
    cfg.frame_stride = -3;
    const rs::Scene world;
    EXPECT_THROW(
        rp::decode_drive(world, default_drive(), {0.0, 0.0}, cfg),
        std::invalid_argument);
  }
  // A valid config still constructs.
  EXPECT_NO_THROW(rp::Interrogator{fast_config()});
}
