// Crash diagnostics: bundle writing, fatal-signal handlers (verified
// end-to-end with death tests — the crashed child must leave a
// complete, parseable bundle).
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ros/obs/crash.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/json_parse.hpp"
#include "ros/obs/metrics.hpp"

namespace ro = ros::obs;
namespace fs = std::filesystem;

namespace {

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

/// Assert `path` exists and parses as one JSON document.
void expect_valid_json_file(const std::string& path) {
  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty()) << path;
  std::string err;
  const auto doc = ro::json_parse(body, &err);
  EXPECT_TRUE(doc.has_value()) << path << ": " << err;
}

/// The single bundle directory under `root` whose name starts with
/// `reason`-; empty string if none.
std::string find_bundle(const std::string& root,
                        const std::string& reason) {
  if (!fs::exists(root)) return {};
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind(reason + "-", 0) == 0) {
      return entry.path().string();
    }
  }
  return {};
}

}  // namespace

TEST(DiagnosticsBundle, DirectWriteProducesCompleteBundle) {
  const std::string root = ::testing::TempDir() + "ros_diag_direct";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);

  auto& reg = ro::MetricsRegistry::global();
  reg.counter("crashtest.bundle").inc(11);
  ro::FlightRecorder::global().record(
      ro::FlightKind::mark,
      ro::FlightRecorder::global().intern("crashtest.mark"), 1);

  const std::string dir = ro::write_diagnostics_bundle("selftest");
  ::unsetenv("ROS_OBS_DIAG_DIR");
  ASSERT_FALSE(dir.empty());
  EXPECT_EQ(dir.rfind(root + "/selftest-", 0), 0u) << dir;

  expect_valid_json_file(dir + "/flight.json");
  expect_valid_json_file(dir + "/metrics.json");
  expect_valid_json_file(dir + "/provenance.json");

  const auto metrics = ro::json_parse(read_file(dir + "/metrics.json"));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_DOUBLE_EQ(
      metrics->at("counters", "crashtest.bundle")->number_or(0), 11.0);

  const auto prov = ro::json_parse(read_file(dir + "/provenance.json"));
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->at("schema")->string, "ros-provenance-v1");
  EXPECT_EQ(prov->at("reason")->string, "selftest");
  ASSERT_NE(prov->at("build", "compiler"), nullptr);
  ASSERT_NE(prov->at("host", "arch"), nullptr);
  EXPECT_GT(prov->at("pid")->number_or(0), 0.0);
  fs::remove_all(root);
}

TEST(DiagnosticsBundle, SequenceNumbersKeepBundlesApart) {
  const std::string root = ::testing::TempDir() + "ros_diag_seq";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);
  const std::string a = ro::write_diagnostics_bundle("dup");
  const std::string b = ro::write_diagnostics_bundle("dup");
  ::unsetenv("ROS_OBS_DIAG_DIR");
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a, b);
  fs::remove_all(root);
}

using CrashHandlerDeathTest = ::testing::Test;

TEST(CrashHandlerDeathTest, AbortLeavesCompleteBundle) {
  const std::string root = ::testing::TempDir() + "ros_diag_abort";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);
  // The child installs the handlers, crashes, and must still die by
  // SIGABRT (the handler re-raises with the default disposition).
  EXPECT_DEATH(
      {
        ros::obs::install_crash_handlers();
        std::abort();
      },
      "");
  ::unsetenv("ROS_OBS_DIAG_DIR");

  const std::string dir = find_bundle(root, "sigabrt");
  ASSERT_FALSE(dir.empty()) << "no sigabrt bundle under " << root;
  expect_valid_json_file(dir + "/flight.json");
  expect_valid_json_file(dir + "/metrics.json");
  expect_valid_json_file(dir + "/provenance.json");
  const auto prov = ro::json_parse(read_file(dir + "/provenance.json"));
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->at("reason")->string, "sigabrt");
  fs::remove_all(root);
}

TEST(CrashHandlerDeathTest, SegfaultLeavesCompleteBundle) {
  const std::string root = ::testing::TempDir() + "ros_diag_segv";
  fs::remove_all(root);
  ::setenv("ROS_OBS_DIAG_DIR", root.c_str(), 1);
  EXPECT_DEATH(
      {
        ros::obs::install_crash_handlers();
        // Record something first so the flight tail is non-trivial.
        auto& fr = ros::obs::FlightRecorder::global();
        fr.record(ros::obs::FlightKind::mark,
                  fr.intern("crashtest.presegv"), 123);
        volatile int* p = nullptr;
        *p = 1;  // NOLINT: deliberate fault
      },
      "");
  ::unsetenv("ROS_OBS_DIAG_DIR");

  const std::string dir = find_bundle(root, "sigsegv");
  ASSERT_FALSE(dir.empty()) << "no sigsegv bundle under " << root;
  expect_valid_json_file(dir + "/flight.json");
  expect_valid_json_file(dir + "/metrics.json");
  expect_valid_json_file(dir + "/provenance.json");
  const auto flight = ro::json_parse(read_file(dir + "/flight.json"));
  ASSERT_TRUE(flight.has_value());
  EXPECT_EQ(flight->at("schema")->string, "ros-flight-v1");
  EXPECT_GT(flight->at("events")->array.size(), 0u);
  fs::remove_all(root);
}

TEST(CrashHandlers, EnvGateInstallsOnlyWhenSet) {
  // The env gate latches on first call; without the variable set it
  // must not install. (This test runs in the parent, where nothing else
  // installed handlers unless a death test child did — children don't
  // affect the parent's state.)
  ro::maybe_install_crash_handlers_from_env();
  // Explicit install flips the flag.
  ro::install_crash_handlers();
  EXPECT_TRUE(ro::crash_handlers_installed());
  // Restore default dispositions so later death tests in this binary
  // see stock signal behavior.
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, SIG_DFL);
  }
}
