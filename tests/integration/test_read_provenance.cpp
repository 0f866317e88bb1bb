// Decode-forensics integration: capture a read provenance bundle from
// the real pipeline and prove the acceptance properties end to end —
//   * a forced decode failure (narrow-FoV no-read) writes a bundle;
//   * `rostriage replay` reproduces the captured read bit-identically
//     under every compiled ros::simd backend and at 1 vs 4 threads;
//   * report/diff render the funnel and judge bundle identity.
// The triage library is exercised in-process (same code the rostriage
// binary wraps), so these tests cover the CLI's logic too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ros/exec/thread_pool.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/simd/simd.hpp"
#include "triage.hpp"

namespace probe = ros::obs::probe;

namespace {

std::string fixture(const std::string& name) {
  return std::string(ROS_TESTS_SOURCE_DIR) + "/golden/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ReadProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "ros_provenance_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::setenv("ROS_OBS_DIAG_DIR", root_.c_str(), 1);
    probe::set_mode(probe::Mode::off);
  }
  void TearDown() override {
    probe::set_mode(probe::Mode::off);
    probe::clear_context();
    ros::exec::ThreadPool::set_global_threads(
        ros::exec::default_threads());
    ros::simd::reset_backend();
    ::unsetenv("ROS_OBS_DIAG_DIR");
  }
  std::string root_;
};

TEST_F(ReadProvenanceTest, ForcedNoReadProducesTriageableBundle) {
  const auto funnel_before = ros::obs::MetricsRegistry::global()
                                 .counter("pipeline.funnel.attempted")
                                 .value();
  const auto paths = ros::triage::capture(
      slurp(fixture("noread_narrow_fov.scenario")), /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);

  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);
  EXPECT_EQ(b.kind(), "decode_drive");
  EXPECT_EQ(b.reason(), "no_read");
  ASSERT_TRUE(b.has_scenario());
  EXPECT_TRUE(b.decoded_bits().empty());
  EXPECT_EQ(b.expected_bits().size(), 4u);

  // The funnel names the stage that killed the read: the spotlight
  // detected the tag, but the truncated aperture cannot reach the
  // coding band.
  bool aperture_failed = false;
  for (const auto& s : b.funnel()) {
    if (s.stage == "synthesized" || s.stage == "detected") {
      EXPECT_TRUE(s.passed) << s.stage;
    }
    if (s.stage == "aperture") {
      aperture_failed = !s.passed;
    }
  }
  EXPECT_TRUE(aperture_failed);

  // Capturing a read also drives the pipeline.funnel.* counters.
  EXPECT_GT(ros::obs::MetricsRegistry::global()
                .counter("pipeline.funnel.attempted")
                .value(),
            funnel_before);

  const std::string text = ros::triage::report(b);
  EXPECT_NE(text.find("funnel"), std::string::npos);
  EXPECT_NE(text.find("FAIL aperture"), std::string::npos);
  EXPECT_NE(text.find("expected  1101"), std::string::npos);
}

TEST_F(ReadProvenanceTest, ReplayIsIdenticalAcrossThreadsAndBackends) {
  const auto paths = ros::triage::capture(
      slurp(fixture("noread_narrow_fov.scenario")), /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto backend : ros::simd::available_backends()) {
      const auto r =
          ros::triage::replay(b, threads, ros::simd::to_string(backend));
      ASSERT_TRUE(r.ran) << r.detail;
      EXPECT_TRUE(r.identical)
          << "threads=" << threads << " backend="
          << ros::simd::to_string(backend) << ": " << r.detail;

      // The fresh bundle must also diff clean against the original
      // (stage artifacts included), modulo runtime annotations.
      const ros::triage::Bundle fresh =
          ros::triage::load_bundle(r.bundle_path);
      bool identical = false;
      const std::string d = ros::triage::diff(b, fresh, &identical);
      EXPECT_TRUE(identical) << d;
    }
  }
}

TEST_F(ReadProvenanceTest, SuccessfulReadReplaysWithMatchingPayload) {
  // Default scenario: nominal drive-by that decodes cleanly.
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[0]);
  EXPECT_EQ(b.reason(), "capture");
  EXPECT_EQ(b.decoded_bits(), b.expected_bits())
      << "nominal scenario should decode its own payload";

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
  EXPECT_EQ(r.bits, b.expected_bits());
}

TEST_F(ReadProvenanceTest, FullRunCapturesInterrogateBundle) {
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/true);
  ASSERT_EQ(paths.size(), 2u);
  const ros::triage::Bundle b = ros::triage::load_bundle(paths[1]);
  EXPECT_EQ(b.kind(), "interrogate");

  // The full pipeline records the detection stages too.
  std::vector<std::string> stages;
  for (const auto& s : b.funnel()) stages.push_back(s.stage);
  EXPECT_NE(std::find(stages.begin(), stages.end(), "clustered"),
            stages.end());

  const auto r = ros::triage::replay(b);
  ASSERT_TRUE(r.ran) << r.detail;
  EXPECT_TRUE(r.identical) << r.detail;
}

TEST_F(ReadProvenanceTest, ReplayRefusesBundleFromAnotherDecoder) {
  // Bundles captured while a codebook decoder existed carry a
  // `decoder_backend` annotation naming it. The FFT decoder cannot
  // reproduce their bits, so replay refuses up front and names the
  // backend rather than failing later on the config digest.
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);
  std::string text = slurp(paths[0]);
  const std::string from = "\"annotations\":{";
  const auto at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + from.size(), "\"decoder_backend\":\"codebook\",");
  const std::string edited = paths[0] + ".edited.json";
  std::ofstream(edited, std::ios::binary) << text;

  const ros::triage::Bundle b = ros::triage::load_bundle(edited);
  const auto r = ros::triage::replay(b);
  EXPECT_FALSE(r.ran);
  EXPECT_FALSE(r.identical);
  EXPECT_NE(r.detail.find("decoder backend 'codebook'"), std::string::npos)
      << r.detail;
}

TEST_F(ReadProvenanceTest, DiffFlagsDivergentBundles) {
  const auto a_paths = ros::triage::capture(
      slurp(fixture("noread_narrow_fov.scenario")), false);
  const auto b_paths =
      ros::triage::capture("# roztest scenario v1\n", false);
  const ros::triage::Bundle a = ros::triage::load_bundle(a_paths[0]);
  const ros::triage::Bundle b = ros::triage::load_bundle(b_paths[0]);
  bool identical = true;
  const std::string d = ros::triage::diff(a, b, &identical);
  EXPECT_FALSE(identical);
  EXPECT_NE(d.find("DIFFER"), std::string::npos);
}

TEST_F(ReadProvenanceTest, ReplayRefusesUnknownBundleKind) {
  // A bundle whose kind names no replayable entry point (a stale
  // streaming kind, or a hand edit) is refused up front instead of
  // being replayed through the wrong pipeline.
  const auto paths = ros::triage::capture("# roztest scenario v1\n",
                                          /*full_run=*/false);
  ASSERT_EQ(paths.size(), 1u);
  std::string text = slurp(paths[0]);
  const std::string from = "\"kind\":\"decode_drive\"";
  const auto at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"kind\":\"stream_interrogate\"");
  const std::string edited = paths[0] + ".edited.json";
  std::ofstream(edited, std::ios::binary) << text;

  const ros::triage::Bundle b = ros::triage::load_bundle(edited);
  EXPECT_EQ(b.kind(), "stream_interrogate");
  const auto r = ros::triage::replay(b);
  EXPECT_FALSE(r.ran);
  EXPECT_FALSE(r.identical);
  EXPECT_NE(r.detail.find("stream_interrogate"), std::string::npos)
      << r.detail;
}

TEST_F(ReadProvenanceTest, LoadBundleRejectsNonBundles) {
  const std::string path = ::testing::TempDir() + "not_a_bundle.json";
  std::ofstream(path) << "{\"schema\":\"something-else\"}";
  EXPECT_THROW(ros::triage::load_bundle(path), std::runtime_error);
  EXPECT_THROW(ros::triage::load_bundle(path + ".missing"),
               std::runtime_error);
}

}  // namespace
