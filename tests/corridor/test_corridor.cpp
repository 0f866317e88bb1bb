// Corridor engine determinism and fidelity suite.
//
// The corridor's contract (DESIGN.md §11):
//   * every readout is bit-identical to the same (vehicle, tag) session
//     run standalone through decode_drive;
//   * the full corridor result is bit-identical at any thread count;
//   * the scheduler is order-free: permuting the input vehicle list
//     changes nothing (plans are sorted by a list-position-free key and
//     vehicle parameters come from id-keyed RNG streams).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ros/corridor/engine.hpp"
#include "ros/corridor/world.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/metrics.hpp"

namespace rc = ros::corridor;

namespace {

struct ThreadsGuard {
  ~ThreadsGuard() {
    ros::exec::ThreadPool::set_global_threads(ros::exec::default_threads());
  }
};

/// Small two-tag corridor: ~12 sessions of ~60-90 frames each, cheap
/// enough to run several times per test.
rc::CorridorSpec small_spec() {
  rc::CorridorSpec spec;
  spec.seed = 42;
  spec.segment_length_m = 10.0;
  spec.tags = {
      rc::TagSpec{.position_m = 2.5,
                  .bits = {true, false, true, true},
                  .capture_half_span_m = 2.0},
      rc::TagSpec{.position_m = 7.0,
                  .bits = {false, true, true, false},
                  .capture_half_span_m = 2.0},
  };
  spec.traffic.n_vehicles = 6;
  spec.traffic.headway_s = 0.35;
  spec.traffic.min_speed_mps = 1.8;
  spec.traffic.max_speed_mps = 2.6;
  spec.config.frame_stride = 25;  // 40 decode frames per second
  spec.tick_s = 0.05;
  return spec;
}

}  // namespace

TEST(Corridor, PlansAreSortedAndSeeded) {
  const rc::CorridorSpec spec = small_spec();
  const auto plans = rc::plan_sessions(spec);
  ASSERT_EQ(plans.size(), 12u);  // 6 vehicles x 2 tags
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].start_s, plans[i].start_s);
  }
  // Noise seeds are pairwise distinct across (vehicle, tag).
  std::vector<std::uint64_t> seeds;
  for (const auto& p : plans) seeds.push_back(p.noise_seed);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(Corridor, FleetGenerationIsDeterministicAndBounded) {
  const rc::CorridorSpec spec = small_spec();
  const auto a = rc::fleet_of(spec);
  const auto b = rc::fleet_of(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].speed_mps, b[i].speed_mps);
    EXPECT_EQ(a[i].lane_m, b[i].lane_m);
    EXPECT_EQ(a[i].spawn_s, b[i].spawn_s);
    EXPECT_GE(a[i].speed_mps, spec.traffic.min_speed_mps);
    EXPECT_LE(a[i].speed_mps, spec.traffic.max_speed_mps);
    EXPECT_GE(a[i].lane_m, spec.traffic.min_lane_m);
    EXPECT_LE(a[i].lane_m, spec.traffic.max_lane_m);
  }
}

TEST(Corridor, EveryFrameReachesTheFrameHistogram) {
  // The corridor feeds its sessions frame by frame; each consumed frame
  // observes its layer sum exactly once, as under decode_drive.
  ros::obs::Histogram& frame_ms =
      ros::obs::MetricsRegistry::global().histogram("decode_drive.frame.ms");
  const std::uint64_t before = frame_ms.count();
  const rc::CorridorResult result = rc::run_corridor(small_spec());
  ASSERT_GT(result.stats.frames_processed, 0u);
  EXPECT_EQ(frame_ms.count() - before, result.stats.frames_processed);
}

TEST(Corridor, RunCompletesEveryPlannedRead) {
  const rc::CorridorSpec spec = small_spec();
  const rc::CorridorResult result = rc::run_corridor(spec);
  ASSERT_EQ(result.reads.size(), 12u);
  for (const auto& r : result.reads) {
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.latency_ms, 0.0);
  }
  EXPECT_EQ(result.stats.reads_completed, 12u);
  EXPECT_EQ(result.stats.sessions_spawned, 12u);
  EXPECT_EQ(result.stats.reads_decoded + result.stats.reads_no_read, 12u);
  EXPECT_GT(result.stats.frames_processed, 0u);
  EXPECT_GE(result.stats.peak_active_sessions, 1u);
  EXPECT_LE(result.stats.sessions_created, result.stats.sessions_spawned);
  // With the default pattern-and-geometry this corridor decodes; a
  // universal no-read would make the fidelity laws vacuous.
  EXPECT_GT(result.stats.reads_decoded, 0u);
}

TEST(Corridor, MatchesStandaloneDecodeDrive) {
  rc::CorridorSpec spec = small_spec();
  // Retain samples so the comparison also covers the sample list.
  spec.stream.retain_samples = true;
  const rc::CorridorResult result = rc::run_corridor(spec);
  const auto plans = rc::plan_sessions(spec);
  ASSERT_EQ(result.reads.size(), plans.size());
  for (std::size_t p = 0; p < plans.size(); p += 3) {
    const auto standalone = rc::standalone_read(spec, plans[p]);
    EXPECT_TRUE(rc::same_read(result.reads[p].result, standalone))
        << "corridor read " << p << " (vehicle "
        << plans[p].vehicle_id << ", tag " << plans[p].tag_index
        << ") diverged from standalone decode_drive";
    EXPECT_EQ(result.reads[p].result.samples.size(),
              standalone.samples.size());
  }
}

TEST(Corridor, BitIdenticalAcrossThreadCounts) {
  const rc::CorridorSpec spec = small_spec();
  ThreadsGuard guard;
  std::vector<std::uint64_t> digests;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ros::exec::ThreadPool::set_global_threads(threads);
    digests.push_back(rc::result_digest(rc::run_corridor(spec)));
  }
  EXPECT_EQ(digests[0], digests[1])
      << "corridor output changed between 1 and 2 threads";
  EXPECT_EQ(digests[0], digests[2])
      << "corridor output changed between 1 and 4 threads";

  // Light traffic: one vehicle every 3 s, so a tick holds at most two
  // sessions (one finishing as the next starts), fewer than the
  // executors, and most executors find nothing to claim.
  rc::CorridorSpec light = small_spec();
  light.traffic.n_vehicles = 3;
  light.traffic.headway_s = 3.0;
  std::vector<std::uint64_t> light_digests;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ros::exec::ThreadPool::set_global_threads(threads);
    const rc::CorridorResult result = rc::run_corridor(light);
    EXPECT_LE(result.stats.peak_active_sessions, 2u);
    light_digests.push_back(rc::result_digest(result));
  }
  EXPECT_EQ(light_digests[0], light_digests[1])
      << "light-traffic output changed between 1 and 2 threads";
  EXPECT_EQ(light_digests[0], light_digests[2])
      << "light-traffic output changed between 1 and 8 threads";
}

TEST(Corridor, SpawnPermutationInvariant) {
  const rc::CorridorSpec base = small_spec();
  const std::uint64_t reference =
      rc::result_digest(rc::run_corridor(base));

  const auto fleet = rc::fleet_of(base);
  rc::CorridorSpec reversed = base;
  reversed.vehicles.assign(fleet.rbegin(), fleet.rend());
  EXPECT_EQ(rc::result_digest(rc::run_corridor(reversed)), reference)
      << "reversing the vehicle list changed the corridor output";

  rc::CorridorSpec rotated = base;
  rotated.vehicles = fleet;
  std::rotate(rotated.vehicles.begin(), rotated.vehicles.begin() + 2,
              rotated.vehicles.end());
  EXPECT_EQ(rc::result_digest(rc::run_corridor(rotated)), reference)
      << "rotating the vehicle list changed the corridor output";
}

TEST(Corridor, TickDrivenRunMatchesOneShot) {
  const rc::CorridorSpec spec = small_spec();
  const std::uint64_t reference =
      rc::result_digest(rc::run_corridor(spec));

  rc::CorridorEngine engine(spec);
  std::size_t guard = 0;
  while (engine.tick()) {
    ASSERT_LT(++guard, 100000u) << "corridor failed to drain";
    EXPECT_LE(engine.active_sessions() + engine.free_sessions(),
              engine.stats().sessions_created);
  }
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.free_sessions(), engine.stats().sessions_created);
  EXPECT_EQ(rc::result_digest(engine.result()), reference);
}

TEST(Corridor, TickLongerThanTheCorridorDrainsInOneTick) {
  // Every plan starts and every frame falls due in the first tick; the
  // frame-count conversions clamp instead of overflowing.
  const rc::CorridorSpec spec = small_spec();
  rc::CorridorSpec coarse = spec;
  coarse.tick_s = 1e300;
  const rc::CorridorResult result = rc::run_corridor(coarse);
  EXPECT_EQ(result.stats.ticks, 1u);
  EXPECT_EQ(result.stats.reads_completed, result.reads.size());
  EXPECT_EQ(rc::result_digest(result),
            rc::result_digest(rc::run_corridor(spec)));
}

TEST(Corridor, RejectsInvalidSpecs) {
  {
    rc::CorridorSpec spec = small_spec();
    spec.tags.clear();
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // 1e-300 s ticks would need ~1e300 ticks to cover the corridor.
  for (const double tick : {0.0, -0.05, nan, inf, 1e-300}) {
    rc::CorridorSpec spec = small_spec();
    spec.tick_s = tick;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << tick;
  }
  for (const double bad : {nan, inf, -inf}) {
    rc::CorridorSpec spec = small_spec();
    spec.traffic.headway_s = bad;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
    spec = small_spec();
    spec.traffic.headway_jitter_s = bad;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
    spec = small_spec();
    spec.tags[0].position_m = bad;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
    spec = small_spec();
    spec.tags[0].capture_half_span_m = bad;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
    // An infinite span at an infinite position would start at inf - inf.
    spec.tags[0].position_m = bad;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
    spec = small_spec();
    spec.vehicles = {rc::Vehicle{.id = 0, .spawn_s = bad}};
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
    spec = small_spec();
    spec.vehicles = {rc::Vehicle{.id = 0, .speed_mps = bad}};
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument) << bad;
  }
  {
    // A crawl so slow that the pass would take ~1e300 s.
    rc::CorridorSpec spec = small_spec();
    spec.vehicles = {rc::Vehicle{.id = 0, .speed_mps = 1e-300}};
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument);
  }
  {
    // Capture span would start before the segment entrance.
    rc::CorridorSpec spec = small_spec();
    spec.tags[0].position_m = 0.5;
    spec.tags[0].capture_half_span_m = 2.0;
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument);
  }
  {
    rc::CorridorSpec spec = small_spec();
    spec.vehicles = {rc::Vehicle{.id = 0, .speed_mps = 0.0}};
    EXPECT_THROW(rc::plan_sessions(spec), std::invalid_argument);
  }
  {
    rc::CorridorSpec spec = small_spec();
    spec.traffic.min_speed_mps = 3.0;
    spec.traffic.max_speed_mps = 2.0;
    EXPECT_THROW(rc::fleet_of(spec), std::invalid_argument);
  }
  // The engine runs the pipeline's validate() on its config, radar
  // array included, before it plans any session.
  for (const double fov : {nan, 0.0, -0.1}) {
    rc::CorridorSpec spec = small_spec();
    spec.config.array.fov_half_angle_rad = fov;
    EXPECT_THROW(rc::CorridorEngine{spec}, std::invalid_argument) << fov;
  }
  {
    rc::CorridorSpec spec = small_spec();
    spec.config.array.pattern_exponent = nan;
    EXPECT_THROW(rc::CorridorEngine{spec}, std::invalid_argument);
  }
  {
    rc::CorridorSpec spec = small_spec();
    spec.config.array.rx_spacing_m = std::numeric_limits<double>::infinity();
    EXPECT_THROW(rc::CorridorEngine{spec}, std::invalid_argument);
  }
}
