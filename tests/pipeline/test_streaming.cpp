// StreamingInterrogator behavior tests: equality with the serial oracle
// on the fixture scenes, prefix consistency, the early-emit laws (emit
// equals the reference decode; no retraction), degenerate frame counts,
// the parallel driver at several thread counts, bounded-window
// clustering, and the probe-armed capture paths. The broad randomized
// metamorphic sweep lives in
// tests/integration/test_streaming_equivalence.cpp; these are the
// targeted, readable cases.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "../support/pipeline_oracle.hpp"
#include "../support/stream_equality.hpp"
#include "ros/common/angles.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/features.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/pipeline/streaming.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;
namespace probe = ros::obs::probe;
namespace oracle = ros::testoracle;
using ros::teststream::diff_cluster;
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

std::uint64_t counter(const char* name) {
  return ros::obs::MetricsRegistry::global().counter(name).value();
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

TEST(Streaming, DecodeModeWindowSizeIsIrrelevant) {
  // The contract: decode mode equals the reference at EVERY window size.
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  for (const std::size_t window : {0ul, 1ul, 3ul, 1000ul}) {
    rp::StreamingOptions opts;
    opts.window_frames = window;
    rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0},
                                     opts);
    engine.push_all();
    EXPECT_EQ(diff_decode_drive(engine.finalize_decode(), reference), "")
        << "window " << window;
  }
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

TEST(Streaming, FullModeWindowCoveringDriveMatchesBatch) {
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  const auto reference = oracle::interrogate(world, drive, cfg);
  rp::StreamingOptions opts;
  opts.window_frames = 100000;  // >= n_frames: nothing ever evicted
  rp::StreamingInterrogator engine(cfg, world, drive, opts);
  engine.push_all();
  EXPECT_EQ(diff_report(engine.finalize_report(), reference), "");
}

TEST(Streaming, BoundedWindowReportCoversExactlySurvivors) {
  // A bounded window lawfully degrades: the report covers the last
  // `window` frames only, and its clusters are exactly what batch
  // clustering of those surviving points produces.
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();
  rp::StreamingOptions opts;
  opts.window_frames = 20;
  rp::StreamingInterrogator engine(cfg, world, drive, opts);
  engine.push_all();
  const auto stream = engine.finalize_report();
  ASSERT_GT(stream.n_frames, opts.window_frames);
  for (const auto& p : stream.cloud.points) {
    EXPECT_GE(p.frame, stream.n_frames - opts.window_frames);
  }
  // Re-cluster the surviving cloud from scratch with batch DBSCAN.
  const auto reclustered = rp::filter_dense(
      rp::extract_clusters(stream.cloud, cfg.dbscan),
      cfg.tag_detector.min_density, cfg.tag_detector.min_points);
  ASSERT_EQ(stream.clusters.size(), reclustered.size());
  for (std::size_t i = 0; i < reclustered.size(); ++i) {
    EXPECT_EQ(diff_cluster(stream.clusters[i], reclustered[i]), "")
        << "cluster " << i;
  }
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

TEST(Streaming, EarlyEmitEqualsFinalDecodeBitForBit) {
  const auto world = make_world();
  const auto drive = default_drive();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  rp::StreamingOptions opts;
  opts.early_emit = true;

  const std::uint64_t mismatches_before =
      counter("pipeline.stream.emit_mismatch");
  const std::uint64_t emits_before =
      counter("pipeline.stream.early_emits");

  rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0},
                                   opts);
  engine.push_all();
  ASSERT_TRUE(engine.has_emitted());
  // The drive exits the 60 deg FoV well before its end.
  EXPECT_LT(engine.emit_frame() + 1, engine.n_frames());
  const rt::DecodeResult emitted = engine.emitted_decode();

  const auto final_result = engine.finalize_decode();
  EXPECT_EQ(diff_decode(emitted, final_result.decode), "");
  EXPECT_EQ(counter("pipeline.stream.emit_mismatch"), mismatches_before);
  EXPECT_EQ(counter("pipeline.stream.early_emits"), emits_before + 1);

  // And the emitted read equals the serial reference read.
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode(emitted, reference.decode), "");
}

TEST(Streaming, EarlyEmitCanStopConsumingAtEmitFrame) {
  // The point of early emit: the consumer may stop right after the
  // emission and still hold the final (reference-identical) readout.
  const auto world = make_world();
  const auto drive = default_drive();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  rp::StreamingOptions opts;
  opts.early_emit = true;

  rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0},
                                   opts);
  std::size_t i = 0;
  while (i < engine.n_frames() && !engine.has_emitted()) {
    engine.push_frame(i++);
  }
  ASSERT_TRUE(engine.has_emitted());
  const auto reference =
      oracle::decode_drive(world, drive, {0.0, 0.0}, cfg);
  EXPECT_EQ(diff_decode(engine.emitted_decode(), reference.decode), "");
  (void)engine.finalize_decode();  // still clean after a partial feed
}

TEST(Streaming, EarlyEmitGateStaysClosedWithoutFov) {
  // No FoV truncation -> the series is never provably final -> the
  // engine must never emit early (it would be a retraction risk).
  const auto world = make_world();
  const auto drive = default_drive();
  const auto cfg = fast_config();  // decode_fov_rad = 0
  rp::StreamingOptions opts;
  opts.early_emit = true;
  rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0},
                                   opts);
  engine.push_all();
  EXPECT_FALSE(engine.has_emitted());
  const auto out = engine.finalize_decode();
  EXPECT_EQ(out.decode.bits,
            (std::vector<bool>{true, false, true, true}));
}

TEST(Streaming, EmitAccessorsThrowBeforeEmission) {
  const auto world = make_world();
  const auto drive = default_drive();
  rp::StreamingInterrogator engine(fast_config(), world, drive,
                                   rs::Vec2{0.0, 0.0});
  EXPECT_FALSE(engine.has_emitted());
  EXPECT_ANY_THROW((void)engine.emit_frame());
  EXPECT_ANY_THROW((void)engine.emitted_decode());
  (void)engine.finalize_decode();
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

// --- probe-armed early-emit capture ---------------------------------

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

TEST_F(StreamingProbeTest, EarlyEmitPathCapturesProvenanceBundle) {
  probe::set_mode(probe::Mode::always);
  const auto world = make_world();
  const auto drive = default_drive();
  auto cfg = fast_config();
  cfg.decode_fov_rad = ros::common::deg_to_rad(60.0);
  rp::StreamingOptions opts;
  opts.early_emit = true;
  rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0},
                                   opts);
  engine.push_all();
  const auto stream = engine.finalize_decode();
  probe::set_mode(probe::Mode::off);
  ASSERT_FALSE(stream.decode.bits.empty());

  const std::string path = probe::last_bundle_path();
  ASSERT_FALSE(path.empty()) << "early-emit read wrote no bundle";
  const std::string bundle = slurp(path);
  // The bundle records the decode-mode read kind, the early-emit funnel
  // stage, and the emit-time artifacts.
  EXPECT_NE(bundle.find("\"kind\":\"decode_drive\""), std::string::npos);
  EXPECT_NE(bundle.find("early_emit"), std::string::npos);
  EXPECT_NE(bundle.find("emit_frame"), std::string::npos);
  EXPECT_NE(bundle.find("bit_margins"), std::string::npos);
}

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
