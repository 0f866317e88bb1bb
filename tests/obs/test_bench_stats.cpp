// Unit tests for the rosbench engine pieces: robust statistics,
// histogram quantiles, the perf-counter fallback path, the timing loop,
// and the shared CLI flag parser.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ros/obs/bench.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/perf_counters.hpp"
#include "ros/obs/scorecard.hpp"
#include "ros/obs/stats.hpp"

namespace {

using namespace ros::obs;

TEST(BenchStats, MedianKnownSamples) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 9.0, 2.0, 7.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  // Robust to one wild outlier.
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0, 1e9}), 3.0);
}

TEST(BenchStats, MadKnownSamples) {
  // {1,2,3,4,5}: median 3, deviations {2,1,0,1,2}, MAD 1.
  EXPECT_DOUBLE_EQ(mad({1.0, 2.0, 3.0, 4.0, 5.0}), 1.0);
  // Constant samples: MAD 0.
  EXPECT_DOUBLE_EQ(mad({7.0, 7.0, 7.0}), 0.0);
  // Outlier barely moves it.
  EXPECT_DOUBLE_EQ(mad({1.0, 2.0, 3.0, 4.0, 1e9}), 1.0);
  // Degenerate sizes.
  EXPECT_DOUBLE_EQ(mad({}), 0.0);
  EXPECT_DOUBLE_EQ(mad({42.0}), 0.0);
}

TEST(BenchStats, SampleStatsFrom) {
  const auto s = SampleStats::from({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.mad, 1.0);

  const auto empty = SampleStats::from({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);
}

TEST(BenchStats, QuantileFromBuckets) {
  // Edges 1, 2, 4; counts: [0,1):10, [1,2):10, [2,4):0, overflow 0.
  const std::vector<double> edges = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {10, 10, 0, 0};
  // p50 = rank 10 -> exactly fills the first bucket.
  EXPECT_DOUBLE_EQ(
      quantile_from_buckets(edges, counts, 0.5), 1.0);
  // p25 -> halfway through the first bucket.
  EXPECT_DOUBLE_EQ(
      quantile_from_buckets(edges, counts, 0.25), 0.5);
  // p75 -> halfway through the second bucket.
  EXPECT_DOUBLE_EQ(
      quantile_from_buckets(edges, counts, 0.75), 1.5);
  // Everything in the overflow bucket collapses to the last edge.
  const std::vector<std::uint64_t> over = {0, 0, 0, 5};
  EXPECT_DOUBLE_EQ(quantile_from_buckets(edges, over, 0.9), 4.0);
  // Empty histogram.
  const std::vector<std::uint64_t> zero = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(quantile_from_buckets(edges, zero, 0.5), 0.0);
  // Mismatched sizes are rejected, not UB.
  const std::vector<std::uint64_t> bad = {1, 2};
  EXPECT_DOUBLE_EQ(quantile_from_buckets(edges, bad, 0.5), 0.0);
}

TEST(BenchStats, HistogramSnapshotQuantiles) {
  auto& reg = MetricsRegistry::global();
  reg.clear();
  const std::vector<double> edges = {1.0, 2.0, 4.0, 8.0};
  auto& h = reg.histogram("quantile.test", edges);
  for (int i = 0; i < 10; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(3.0);
  const auto snap = reg.snapshot();
  const HistogramSnapshot* hs = nullptr;
  for (const auto& s : snap.histograms) {
    if (s.name == "quantile.test") hs = &s;
  }
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->quantile(0.5), 1.0);
  EXPECT_NEAR(hs->quantile(0.99), 3.96, 1e-9);
  // to_json carries the interpolated quantiles.
  const auto json = reg.to_json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  reg.clear();
}

TEST(BenchRun, RunTimedCountsReps) {
  int calls = 0;
  BenchRunOptions opts;
  opts.warmup = 2;
  opts.reps = 3;
  opts.collect_perf_counters = false;
  const auto t = run_timed([&] { ++calls; }, opts);
  EXPECT_EQ(calls, 5);  // warmup + reps
  EXPECT_EQ(t.reps, 3);
  EXPECT_EQ(t.wall_ms.n, 3u);
  EXPECT_GE(t.wall_ms.min, 0.0);
  EXPECT_GE(t.wall_ms.max, t.wall_ms.min);
  EXPECT_GT(t.peak_rss_kb, 0);
  // Perf counters were not requested: sample must be invalid, not junk.
  EXPECT_FALSE(t.perf.valid);
}

TEST(BenchRun, RunTimedClampsReps) {
  int calls = 0;
  BenchRunOptions opts;
  opts.warmup = 0;
  opts.reps = 0;  // clamped to 1
  opts.collect_perf_counters = false;
  const auto t = run_timed([&] { ++calls; }, opts);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(t.reps, 1);
}

TEST(BenchRun, PerfCounterFallbackIsGraceful) {
  // Whether or not the kernel grants PMU access, the API must not
  // crash, and an unavailable group must say why.
  PerfCounterGroup g;
  if (!g.available()) {
    EXPECT_FALSE(g.error().empty());
    g.start();  // no-ops
    const auto s = g.stop();
    EXPECT_FALSE(s.valid);
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
  } else {
    g.start();
    volatile double acc = 0.0;
    for (int i = 0; i < 100000; ++i) acc = acc + static_cast<double>(i);
    const auto s = g.stop();
    EXPECT_TRUE(s.valid);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.instructions, 0u);
    EXPECT_GT(s.ipc(), 0.0);
  }
  // run_timed integrates the same fallback: perf.valid mirrors group
  // availability but the timing stats are always populated.
  BenchRunOptions opts;
  opts.warmup = 0;
  opts.reps = 2;
  const auto t = run_timed([] {
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }, opts);
  EXPECT_EQ(t.wall_ms.n, 2u);
  if (!t.perf.valid) {
    EXPECT_FALSE(t.perf_error.empty());
  }
}

TEST(Scorecard, RecordOverwriteAndFailures) {
  Scorecard card;
  card.record("a", 1.0, 0.0, 2.0, "in range");
  card.record("b", 5.0, 0.0, 2.0);
  EXPECT_EQ(card.checks().size(), 2u);
  EXPECT_FALSE(card.all_pass());
  EXPECT_EQ(card.failures(), 1u);
  // Overwrite by name fixes the failure without duplicating the entry.
  card.record("b", 1.5, 0.0, 2.0);
  EXPECT_EQ(card.checks().size(), 2u);
  EXPECT_TRUE(card.all_pass());
  ASSERT_NE(card.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(card.find("b")->value, 1.5);
  EXPECT_EQ(card.find("missing"), nullptr);
  // Envelope bounds are inclusive.
  card.record("edge", 2.0, 0.0, 2.0);
  EXPECT_TRUE(card.find("edge")->pass());
}

TEST(BenchCli, ArgTakeValueBothForms) {
  std::string out;

  // --flag=VALUE form.
  {
    const char* argv_arr[] = {"prog", "--metrics-out=/tmp/m.json"};
    char** argv = const_cast<char**>(argv_arr);
    int i = 1;
    EXPECT_TRUE(arg_take_value(argv[1], "--metrics-out", 2, argv, i, &out));
    EXPECT_EQ(out, "/tmp/m.json");
    EXPECT_EQ(i, 1);  // nothing consumed beyond the current token
  }

  // --flag VALUE form consumes the next token.
  {
    const char* argv_arr[] = {"prog", "--metrics-out", "/tmp/n.json"};
    char** argv = const_cast<char**>(argv_arr);
    int i = 1;
    EXPECT_TRUE(arg_take_value(argv[1], "--metrics-out", 3, argv, i, &out));
    EXPECT_EQ(out, "/tmp/n.json");
    EXPECT_EQ(i, 2);
  }

  // --flag at end of argv without a value: not taken.
  {
    const char* argv_arr[] = {"prog", "--metrics-out"};
    char** argv = const_cast<char**>(argv_arr);
    int i = 1;
    out = "untouched";
    EXPECT_FALSE(arg_take_value(argv[1], "--metrics-out", 2, argv, i,
                                &out));
    EXPECT_EQ(out, "untouched");
  }

  // A different flag, and a flag that merely shares a prefix.
  {
    const char* argv_arr[] = {"prog", "--metrics-outX=/tmp/x"};
    char** argv = const_cast<char**>(argv_arr);
    int i = 1;
    EXPECT_FALSE(arg_take_value(argv[1], "--metrics-out", 2, argv, i,
                                &out));
  }
}

}  // namespace
