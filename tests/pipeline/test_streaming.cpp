// StreamingInterrogator behavior tests: equality with the serial oracle
// on the fixture scenes, prefix consistency, degenerate frame counts,
// the parallel driver at several thread counts, and the probe-armed
// capture path. The broad randomized
// metamorphic sweep lives in
// tests/integration/test_streaming_equivalence.cpp; these are the
// targeted, readable cases.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "../support/pipeline_oracle.hpp"
#include "../support/stream_equality.hpp"
#include "ros/common/angles.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/pipeline/streaming.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;
namespace probe = ros::obs::probe;
namespace oracle = ros::testoracle;
using ros::teststream::diff_decode;
using ros::teststream::diff_decode_drive;
using ros::teststream::diff_report;

namespace {

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

rs::StraightDrive default_drive() {
  return rs::StraightDrive({.lane_offset_m = 3.0,
                            .speed_mps = 2.0,
                            .start_x_m = -2.5,
                            .end_x_m = 2.5});
}

rp::InterrogatorConfig fast_config() {
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 5;
  return cfg;
}

rs::Scene make_world() {
  rs::Scene world;
  world.add_tag(rt::make_default_tag({true, false, true, true}, &stackup(),
                                     32, true),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  world.add_clutter(rs::tripod_params({1.3, 0.4}));
  return world;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The engine holds the scene and drive by reference: binding a
// temporary must not compile.
static_assert(!std::is_constructible_v<rp::StreamingInterrogator,
                                       const rp::InterrogatorConfig&,
                                       rs::Scene, const rs::StraightDrive&,
                                       rs::Vec2>);
static_assert(!std::is_constructible_v<rp::StreamingInterrogator,
                                       const rp::InterrogatorConfig&,
                                       const rs::Scene&, rs::StraightDrive,
                                       rs::Vec2>);
static_assert(!std::is_constructible_v<rp::StreamingInterrogator,
                                       const rp::InterrogatorConfig&,
                                       rs::Scene, const rs::StraightDrive&>);
static_assert(!std::is_constructible_v<rp::StreamingInterrogator,
                                       const rp::InterrogatorConfig&,
                                       const rs::Scene&, rs::StraightDrive>);

}  // namespace

TEST(Streaming, DecodeModeMatchesBatchExactly) {
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  const auto result = rp::decode_drive(world, drive, {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode_drive(result, reference), "");
  EXPECT_EQ(result.decode.bits,
            (std::vector<bool>{true, false, true, true}));
}

TEST(Streaming, DecodeModeMatchesOracleWithFovAndStride) {
  const auto world = make_world();
  const auto drive = default_drive();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  cfg.frame_stride = 7;
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  const auto result = rp::decode_drive(world, drive, {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode_drive(result, reference), "");
}

TEST(Streaming, FullModeMatchesBatchUnbounded) {
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto reference = oracle::interrogate(world, drive, cfg);
  const auto report = rp::Interrogator(cfg).run(world, drive);
  EXPECT_EQ(diff_report(report, reference), "");
  ASSERT_EQ(report.tags.size(), 1u);
}

TEST(Streaming, FullModeEngineMatchesBatch) {
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto reference = oracle::interrogate(world, drive, cfg);
  rp::StreamingInterrogator engine(cfg, world, drive);
  engine.push_all();
  EXPECT_EQ(diff_report(engine.finalize_report(), reference), "");
}

TEST(Streaming, ParallelDriverMatchesOracleAtEveryThreadCount) {
  // push_all() synthesizes 64-frame blocks across the pool; the result
  // must not depend on how many executors ran them. The drive spans
  // several blocks at this stride.
  const auto world = make_world();
  const auto drive = default_drive();
  auto cfg = fast_config();
  cfg.frame_stride = 2;
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  const auto full_cfg = fast_config();
  const auto full_reference = oracle::interrogate(world, drive, full_cfg);
  ASSERT_GT(reference.telemetry.n_frames,
            2 * rp::StreamingInterrogator::kBlockFrames);
  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    ros::exec::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(diff_decode_drive(
                  rp::decode_drive(world, drive, {0.0, 0.0}, cfg), reference),
              "")
        << threads << " threads";
    EXPECT_EQ(diff_report(rp::Interrogator(full_cfg).run(world, drive),
                          full_reference),
              "")
        << threads << " threads";
  }
  ros::exec::ThreadPool::set_global_threads(ros::exec::default_threads());
}

TEST(Streaming, ConsumeEnforcesFrameOrder) {
  const auto world = make_world();
  const auto drive = default_drive();
  rp::StreamingInterrogator engine(fast_config(), world, drive,
                                   rs::Vec2{0.0, 0.0});
  ASSERT_GE(engine.n_frames(), 2u);
  auto pkt = engine.synthesize(1);  // out of order: frame 0 not consumed
  EXPECT_ANY_THROW(engine.consume(std::move(pkt)));
}

TEST(Streaming, UncountableDriveIsRejectedAtConstruction) {
  // 1e-300 m/s over 6 m is ~6e300 s: no size_t holds its frame count.
  const auto world = make_world();
  const rs::StraightDrive crawl({.speed_mps = 1e-300});
  EXPECT_THROW(rp::StreamingInterrogator(fast_config(), world, crawl,
                                         rs::Vec2{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(rp::StreamingInterrogator(fast_config(), world, crawl),
               std::invalid_argument);
}

TEST(Streaming, FinalizeWithZeroFramesIsACleanNoRead) {
  const auto world = make_world();
  const auto drive = default_drive();
  rp::StreamingInterrogator engine(fast_config(), world, drive,
                                   rs::Vec2{0.0, 0.0});
  const auto out = engine.finalize_decode();
  EXPECT_TRUE(out.decode.bits.empty());
  EXPECT_TRUE(out.samples.empty());
  EXPECT_EQ(out.telemetry.n_frames, 0u);

  rp::StreamingInterrogator full(fast_config(), world, drive);
  const auto report = full.finalize_report();
  EXPECT_TRUE(report.cloud.points.empty());
  EXPECT_TRUE(report.clusters.empty());
  EXPECT_TRUE(report.tags.empty());
}

TEST(Streaming, SingleFrameDriveStillMatchesBatch) {
  // Degenerate frame count: a pass so short only one frame exists.
  const auto world = make_world();
  auto cfg = fast_config();
  cfg.frame_stride = 100;
  const auto drive = rs::StraightDrive({.lane_offset_m = 3.0,
                                        .speed_mps = 12.0,
                                        .start_x_m = -0.05,
                                        .end_x_m = 0.05});
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  const auto result = rp::decode_drive(world, drive, {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode_drive(result, reference), "");

  const auto full_reference = oracle::interrogate(world, drive, cfg);
  const auto report = rp::Interrogator(cfg).run(world, drive);
  EXPECT_EQ(report.n_frames, 1u);
  EXPECT_EQ(diff_report(report, full_reference), "");
}

TEST(Streaming, PrefixConsistencySamplesArePrefixes) {
  // Consuming only the first k frames yields exactly the first k
  // samples of the full pass — no state leaks across the cut.
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto full = rp::decode_drive(world, drive, {0.0, 0.0}, cfg);
  const std::size_t n = full.samples.size();
  ASSERT_GT(n, 4u);
  for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
    rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0});
    for (std::size_t i = 0; i < k; ++i) engine.push_frame(i);
    const auto prefix = engine.finalize_decode();
    ASSERT_EQ(prefix.samples.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(prefix.samples[i].u, full.samples[i].u);
      EXPECT_EQ(prefix.samples[i].rss_w, full.samples[i].rss_w);
      EXPECT_EQ(prefix.samples[i].frame, full.samples[i].frame);
    }
  }
}

TEST(Streaming, RetainSamplesOffDropsOutputButNotDecode) {
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  rp::StreamingOptions opts;
  opts.retain_samples = false;
  rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0},
                                   opts);
  engine.push_all();
  const auto stream = engine.finalize_decode();
  EXPECT_TRUE(stream.samples.empty());
  EXPECT_EQ(diff_decode(stream.decode, reference.decode), "");
  EXPECT_EQ(stream.mean_rss_dbm, reference.mean_rss_dbm);
}

// --- probe-armed capture -------------------------------------------

class StreamingProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "ros_stream_probe_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::setenv("ROS_OBS_DIAG_DIR", root_.c_str(), 1);
    probe::set_mode(probe::Mode::off);
  }
  void TearDown() override {
    probe::set_mode(probe::Mode::off);
    probe::clear_context();
    ::unsetenv("ROS_OBS_DIAG_DIR");
  }
  std::string root_;
};

TEST_F(StreamingProbeTest, DecodeDriveRangeFftArtifactMatchesOracleProfiles) {
  // Decode mode retains no profiles; the engine builds the range_fft
  // artifact frame by frame while capturing. It must equal the
  // one-shot serializer over every profile of the pass.
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  std::vector<ros::radar::RangeProfile> profiles;
  (void)oracle::decode_drive(world, drive, {0.0, 0.0}, cfg, &profiles);
  const std::string expected =
      rp::range_profiles_json(profiles, cfg.noise_seed);

  probe::set_mode(probe::Mode::always);
  (void)rp::decode_drive(world, drive, {0.0, 0.0}, cfg);
  probe::set_mode(probe::Mode::off);
  const std::string path = probe::last_bundle_path();
  ASSERT_FALSE(path.empty()) << "decode_drive wrote no bundle";
  EXPECT_NE(slurp(path).find("\"range_fft\":" + expected),
            std::string::npos)
      << "captured range_fft artifact differs from range_profiles_json";
}
