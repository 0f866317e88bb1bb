// Zero-allocation acceptance for the interrogation frame loop: after a
// warmup run, a read's per-frame processing must neither grow the
// per-thread arenas (exec.arena.grows flat) nor allocate beyond a
// constant per-frame sliver (push_all's block of packet buffers and,
// in full mode, the retained profiles and detections), as measured by
// the ros::obs allocation hook. The frame-by-frame push_frame loop
// reuses one packet per thread and gets no per-frame sliver at all.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ros/exec/thread_pool.hpp"
#include "ros/obs/alloc.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/streaming.hpp"

namespace rp = ros::pipeline;
namespace rs = ros::scene;
namespace rt = ros::tag;

namespace {

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

rs::StraightDrive short_drive() {
  return rs::StraightDrive({.lane_offset_m = 3.0,
                            .speed_mps = 2.0,
                            .start_x_m = -1.0,
                            .end_x_m = 1.0});
}

rs::Scene make_world() {
  rs::Scene world;
  world.add_tag(rt::make_default_tag({true, false, true, true}, &stackup(),
                                     32, true),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  world.add_clutter(rs::tripod_params({1.3, 0.4}));
  return world;
}

std::uint64_t arena_grows() {
  return ros::obs::MetricsRegistry::global()
      .counter("exec.arena.grows")
      .value();
}

double gauge(const char* name) {
  return ros::obs::MetricsRegistry::global().gauge(name).value();
}

/// Synthesize one frame of `engine` on EVERY pool executor, so each
/// thread's workspace and arena exist before the measured run. A warmup
/// read alone cannot promise that: on a loaded host the calling thread
/// may claim every chunk of a block before a sleeping worker wakes, and
/// that worker's first frame would then land in the measured run. The
/// barrier holds each executor on its index until all have arrived.
void warm_every_executor(const rp::StreamingInterrogator& engine) {
  const std::size_t n = ros::exec::ThreadPool::global().threads();
  std::atomic<std::size_t> arrived{0};
  ros::exec::parallel_for(0, n, [&](std::size_t k) {
    arrived.fetch_add(1);
    while (arrived.load() < n) std::this_thread::yield();
    (void)engine.synthesize(k % engine.n_frames());
  });
}

/// The same for a decode- or full-mode read of `short_drive()`.
void warm_every_executor(const rp::InterrogatorConfig& cfg,
                         const rs::Scene& world, bool full_mode) {
  const auto drive = short_drive();
  if (full_mode) {
    warm_every_executor(rp::StreamingInterrogator(cfg, world, drive));
  } else {
    warm_every_executor(
        rp::StreamingInterrogator(cfg, world, drive, rs::Vec2{0.0, 0.0}));
  }
}

}  // namespace

TEST(ZeroAlloc, DecodeDriveSteadyStateDoesNotGrowArenas) {
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  // Warmup: sizes every thread-local workspace, arena, window table,
  // and FFT plan for this configuration.
  warm_every_executor(cfg, world, /*full_mode=*/false);
  const auto warm = rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  ASSERT_GT(warm.samples.size(), 0u);

  const std::uint64_t grows_before = arena_grows();
  const auto steady =
      rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state decode_drive grew a scratch arena";
  // Identical inputs must reproduce the warmup result exactly.
  ASSERT_EQ(steady.samples.size(), warm.samples.size());
  EXPECT_EQ(steady.decode.bits, warm.decode.bits);
  EXPECT_EQ(steady.mean_rss_dbm, warm.mean_rss_dbm);
}

TEST(ZeroAlloc, DecodeDriveFrameLoopAllocsAreOutputOnly) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  warm_every_executor(cfg, world, /*full_mode=*/false);
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const double warm_allocs =
      gauge("decode_drive.frame_loop.allocs_per_frame");
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const double steady_allocs =
      gauge("decode_drive.frame_loop.allocs_per_frame");

  // Spans copy no names, so the steady-state allocations are push_all's
  // block of packets (one outer profile vector + one per Rx channel = 9
  // per slot for the IWR1443's 8 Rx, filled once per read) plus a constant
  // sliver of harness noise: well under one per frame on long drives.
  // Anything that scales with samples-per-frame or returns-per-frame
  // would blow well past this.
  EXPECT_LE(steady_allocs, 16.0)
      << "decode_drive allocates per frame beyond its output profile";
  EXPECT_LE(steady_allocs, warm_allocs + 1.0)
      << "steady state should never allocate more than warmup";
}

TEST(ZeroAlloc, PushFrameLoopAllocsAreOutputOnly) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // The corridor's per-frame path: push_frame synthesizes into the
  // calling thread's packet, so once one read has warmed that packet a
  // decode-mode frame loop allocates nothing per frame. A fresh packet
  // per frame would cost one outer profile vector plus one per Rx
  // channel (9 on the default 8-Rx array).
  const auto world = make_world();
  const auto drive = short_drive();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  const auto read = [&] {
    rp::StreamingInterrogator engine(cfg, world, drive, rs::Vec2{0.0, 0.0});
    const auto before = ros::obs::thread_alloc_counters();
    for (std::size_t i = 0; i < engine.n_frames(); ++i) engine.push_frame(i);
    const auto after = ros::obs::thread_alloc_counters();
    (void)engine.finalize_decode();
    return static_cast<double>(after.allocs - before.allocs) /
           static_cast<double>(engine.n_frames());
  };
  (void)read();
  EXPECT_LT(read(), 1.0)
      << "a warm push_frame loop allocates per frame";
}

TEST(ZeroAlloc, InterrogateFrameLoopAllocsAreBounded) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  const rp::Interrogator inter(cfg);

  warm_every_executor(cfg, world, /*full_mode=*/true);
  (void)inter.run(world, short_drive());
  const std::uint64_t grows_before = arena_grows();
  (void)inter.run(world, short_drive());
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state interrogation grew a scratch arena";
  // Both Tx passes retain profiles and the detector emits point lists,
  // so the budget is larger than decode_drive's but still O(1) per
  // frame (~2 profiles + 2 detection vectors + CFAR/cloud slivers).
  EXPECT_LE(gauge("interrogate.frame_loop.allocs_per_frame"), 64.0);
}

TEST(ZeroAlloc, BudgetsHoldWithFlightRecorderLive) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // The v2 acceptance bar: the flight recorder must be on (its default)
  // while the zero-alloc budgets above are met — sampled frame markers
  // and RNG-seed breadcrumbs ride inside the budget.
  auto& fr = ros::obs::FlightRecorder::global();
  ASSERT_TRUE(fr.enabled())
      << "flight recorder should be on by default in tests";
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;

  warm_every_executor(cfg, world, /*full_mode=*/false);
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const std::uint64_t recorded_before = fr.total_recorded();
  const std::uint64_t grows_before = arena_grows();
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  EXPECT_EQ(arena_grows(), grows_before);
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0);
  // And it actually recorded something during the run (sampled frame
  // events plus the end-of-run arena high-water mark).
  EXPECT_GT(fr.total_recorded(), recorded_before);
}

TEST(ZeroAlloc, StreamingDecodeLoopStaysInsideBatchBudget) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // The soak configuration of the engine (no retained sample list)
  // carries the SAME frame-loop budget as decode_drive: sample/series
  // storage is reserved up front.
  const auto world = make_world();
  const auto drive = short_drive();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  cfg.decode_fov_rad = 1.0;
  const rp::StreamingOptions opts{.retain_samples = false};

  const auto run = [&] {
    rp::StreamingInterrogator engine(cfg, world, drive,
                                     rs::Vec2{0.0, 0.0}, opts);
    engine.push_all();
    return engine.finalize_decode();
  };
  warm_every_executor(cfg, world, /*full_mode=*/false);
  (void)run();
  const std::uint64_t grows_before = arena_grows();
  const auto steady = run();
  EXPECT_EQ(arena_grows(), grows_before)
      << "steady-state streaming decode grew a scratch arena";
  EXPECT_TRUE(steady.samples.empty());
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0)
      << "streaming decode allocates per frame beyond its output profile";
}

TEST(ZeroAlloc, BudgetsHoldWithProvenanceProbeArmed) {
  if (!ros::obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  // Decode-forensics invariant: every probe tap sits OUTSIDE the
  // parallel frame loop, so arming the probe — even in capture-heavy
  // failure mode — must not move the per-frame allocation budget. A tap
  // migrating into the loop would show up here immediately.
  namespace probe = ros::obs::probe;
  const auto world = make_world();
  rp::InterrogatorConfig cfg;
  cfg.frame_stride = 10;
  warm_every_executor(cfg, world, /*full_mode=*/false);
  const probe::Mode saved = probe::mode();
  probe::set_mode(probe::Mode::failure);

  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  const std::uint64_t grows_before = arena_grows();
  (void)rp::decode_drive(world, short_drive(), {0.0, 0.0}, cfg);
  probe::set_mode(saved);
  EXPECT_EQ(arena_grows(), grows_before)
      << "probe capture grew a scratch arena from the frame loop";
  EXPECT_LE(gauge("decode_drive.frame_loop.allocs_per_frame"), 16.0)
      << "probe capture allocated inside the frame loop";
}
