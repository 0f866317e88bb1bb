// SnapshotExporter: JSONL/Prometheus export, driven synchronously
// through tick_at().
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ros/obs/export.hpp"
#include "ros/obs/json_parse.hpp"
#include "ros/obs/metrics.hpp"

namespace ro = ros::obs;

namespace {

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

TEST(SnapshotExporter, JsonlLinesParseStandalone) {
  auto& reg = ro::MetricsRegistry::global();
  reg.clear();
  reg.counter("exporttest.count").inc(3);
  reg.gauge("exporttest.gauge").set(1.5);

  ro::SnapshotExporter::Options opt;
  opt.jsonl_path = ::testing::TempDir() + "export_test.jsonl";
  std::remove(opt.jsonl_path.c_str());
  ro::SnapshotExporter exporter(opt);
  EXPECT_TRUE(exporter.tick_at(1.0));
  reg.counter("exporttest.count").inc(2);
  EXPECT_TRUE(exporter.tick_at(2.0));
  EXPECT_EQ(exporter.ticks(), 2u);

  const auto lines = split_lines(read_file(opt.jsonl_path));
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    std::string err;
    const auto doc = ro::json_parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    ASSERT_NE(doc->at("metrics", "counters"), nullptr);
  }
  const auto last = ro::json_parse(lines[1]);
  EXPECT_DOUBLE_EQ(last->at("t_s")->number_or(0.0), 2.0);
  EXPECT_DOUBLE_EQ(
      last->at("metrics", "counters", "exporttest.count")->number_or(0),
      5.0);
  std::remove(opt.jsonl_path.c_str());
  reg.clear();
}

TEST(SnapshotExporter, PrometheusFileRewrittenAtomically) {
  auto& reg = ro::MetricsRegistry::global();
  reg.clear();
  reg.counter("exporttest.prom").inc(7);
  reg.histogram("exporttest.hist").observe(0.5);

  ro::SnapshotExporter::Options opt;
  opt.prom_path = ::testing::TempDir() + "export_test.prom";
  ro::SnapshotExporter exporter(opt);
  EXPECT_TRUE(exporter.tick_at(1.0));
  const std::string prom = read_file(opt.prom_path);
  EXPECT_NE(prom.find("ros_counter{name=\"exporttest.prom\"} 7"),
            std::string::npos);
  EXPECT_NE(prom.find("ros_histogram_count{name=\"exporttest.hist\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  // No half-written tmp file left behind.
  std::FILE* tmp = std::fopen((opt.prom_path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(opt.prom_path.c_str());
  reg.clear();
}

TEST(SnapshotExporter, BackgroundThreadStartsAndStopsCleanly) {
  ro::SnapshotExporter::Options opt;
  opt.interval_s = 0.01;
  ro::SnapshotExporter exporter(opt);
  EXPECT_FALSE(exporter.running());
  exporter.start();
  EXPECT_TRUE(exporter.running());
  exporter.start();  // idempotent
  exporter.stop();
  EXPECT_FALSE(exporter.running());
  exporter.stop();  // idempotent
  // The shutdown path runs one final tick.
  EXPECT_GE(exporter.ticks(), 1u);
}
