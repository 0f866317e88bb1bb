// Pipeline == serial oracle — the metamorphic proof harness. Over 100+
// randomized testkit scenarios every way of driving the interrogation
// engine must reproduce the serial layer-call reference
// (tests/support/pipeline_oracle.hpp) BIT-IDENTICALLY (operator==, no
// epsilon): same samples, same decoded bits and decision variables,
// same funnel verdict, same read/no-read outcome — across frame-by-frame
// delivery, frame-delivery chunking and the parallel block driver at
// the pool's thread count.
//
// CI runs this file as its own job (`streaming-equivalence`) under
// ROS_THREADS=4 ROS_SIMD=scalar with the probe armed in failure mode,
// so any divergence uploads a replayable provenance bundle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/em/material.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/testkit/scenario.hpp"
#include "../support/pipeline_oracle.hpp"
#include "../support/stream_equality.hpp"

namespace rp = ros::pipeline;
namespace tk = ros::testkit;
namespace oracle = ros::testoracle;
using ros::common::Rng;
using ros::teststream::diff_decode_drive;
using ros::teststream::diff_report;

namespace {

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

/// Deterministic randomized scenario #k (the roztest generator: six
/// mutations from the default, fixed seed -> reproducible forever).
tk::Scenario scenario_at(std::uint64_t k) {
  Rng rng(0x5eedc0de + k);
  tk::Scenario s;
  for (int i = 0; i < 6; ++i) s = tk::mutate(s, rng);
  return s;
}

/// Feed a streaming engine with deliberately hostile delivery order:
/// synthesize each block of `chunk` frames in REVERSE, then consume in
/// order. Proves synthesis is order-free and the consumer sees pure
/// FIFO regardless of production schedule.
rp::DecodeDriveResult run_chunked(const tk::Scenario& s,
                                  const rp::InterrogatorConfig& cfg,
                                  std::size_t chunk) {
  const auto scene = s.make_scene(&stackup());
  const auto drive = s.make_drive();
  rp::StreamingInterrogator engine(cfg, scene, drive,
                                   ros::scene::Vec2{0.0, 0.0});
  std::vector<rp::FramePacket> block;
  for (std::size_t base = 0; base < engine.n_frames(); base += chunk) {
    const std::size_t count =
        std::min(chunk, engine.n_frames() - base);
    block.assign(count, rp::FramePacket{});
    for (std::size_t k = count; k-- > 0;) {
      engine.synthesize_into(base + k, block[k]);
    }
    for (std::size_t k = 0; k < count; ++k) {
      engine.consume(std::move(block[k]));
    }
  }
  return engine.finalize_decode();
}

}  // namespace

TEST(StreamingEquivalence, DecodeModeBitIdenticalAcrossScenarioSweep) {
  // >= 100 randomized scenarios x a rotating delivery chunking. Every
  // leg must be exactly equal to the serial oracle.
  constexpr std::uint64_t kScenarios = 108;

  for (std::uint64_t k = 0; k < kScenarios; ++k) {
    const tk::Scenario s = scenario_at(k);
    SCOPED_TRACE("scenario " + std::to_string(k) + "\n" + s.encode());
    const auto scene = s.make_scene(&stackup());
    const auto drive = s.make_drive();
    const rp::InterrogatorConfig cfg = s.make_config();

    const auto reference =
        oracle::decode_drive(scene, drive, {0.0, 0.0}, cfg);

    // Leg 1: the parallel driver at the pool's thread count.
    const auto parallel = rp::decode_drive(scene, drive, {0.0, 0.0}, cfg);
    ASSERT_EQ(diff_decode_drive(parallel, reference), "")
        << "parallel driver (decode_drive)";

    // Leg 2: frame-by-frame driver.
    rp::StreamingInterrogator inline_engine(cfg, scene, drive,
                                            ros::scene::Vec2{0.0, 0.0});
    for (std::size_t i = 0; i < inline_engine.n_frames(); ++i) {
      inline_engine.push_frame(i);
    }
    ASSERT_EQ(diff_decode_drive(inline_engine.finalize_decode(), reference),
              "")
        << "inline driver";

    // Leg 3: hostile chunked delivery (reverse-order synthesis inside
    // each block), rotating chunk size including 1 and > n_frames.
    const std::size_t chunks[] = {1, 3, 16, 1024};
    const auto chunked = run_chunked(s, cfg, chunks[k % 4]);
    ASSERT_EQ(diff_decode_drive(chunked, reference), "")
        << "chunked delivery, chunk " << chunks[k % 4];
  }
}

TEST(StreamingEquivalence, FullModeBitIdentical) {
  // The full pipeline (detect + cluster + classify + decode) against the
  // serial oracle — Interrogator::run (parallel driver) and a
  // frame-by-frame engine.
  for (std::uint64_t k = 0; k < 14; ++k) {
    const tk::Scenario s = scenario_at(1000 + k);
    SCOPED_TRACE("scenario " + std::to_string(k) + "\n" + s.encode());
    const auto scene = s.make_scene(&stackup());
    const auto drive = s.make_drive();
    const rp::InterrogatorConfig cfg = s.make_config();

    const auto reference = oracle::interrogate(scene, drive, cfg);

    const auto parallel = rp::Interrogator(cfg).run(scene, drive);
    ASSERT_EQ(diff_report(parallel, reference), "")
        << "parallel driver (Interrogator::run)";

    rp::StreamingInterrogator engine(cfg, scene, drive);
    for (std::size_t i = 0; i < engine.n_frames(); ++i) {
      engine.push_frame(i);
    }
    ASSERT_EQ(diff_report(engine.finalize_report(), reference), "")
        << "inline full mode";
  }
}
