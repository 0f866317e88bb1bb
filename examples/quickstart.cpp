// Quickstart: encode 4 bits into a RoS tag, drive a simulated automotive
// radar past it, detect + decode the tag with the full Sec. 6 pipeline,
// and print the per-stage telemetry.
//
//   $ ./quickstart            # uses bits 1011
//   $ ./quickstart 0110       # any 4-bit pattern
//
// Observability:
//   $ ROS_LOG_LEVEL=debug ./quickstart        # stage-by-stage logfmt on stderr
//   $ ROS_TRACE_FILE=trace.json ./quickstart  # Chrome trace (load in
//                                             # chrome://tracing or ui.perfetto.dev)
#include <cstdio>
#include <string>
#include <vector>

#include "ros/em/material.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/trajectory.hpp"
#include "ros/tag/tag.hpp"

int main(int argc, char** argv) {
  // 1. Choose the payload.
  std::vector<bool> bits = {true, false, true, true};
  if (argc > 1 && std::string(argv[1]).size() == 4) {
    for (int i = 0; i < 4; ++i) bits[i] = argv[1][i] == '1';
  }
  printf("encoding bits: %d%d%d%d\n", int(bits[0]), int(bits[1]),
         int(bits[2]), int(bits[3]));

  // 2. Build the tag: the paper's default design -- 4 coding slots at
  // delta_c = 1.5 lambda, 5 possible stacks of 32 beam-shaped PSVAAs on
  // the Rogers 4350B stackup.
  const auto stackup = ros::em::StriplineStackup::ros_default();
  auto tag = ros::tag::make_default_tag(bits, &stackup);
  printf("tag: %d stacks, %.1f cm wide, %.1f cm tall, far field %.1f m\n",
         tag.layout().n_stacks(), tag.layout().width() * 100.0,
         tag.stack_height() * 100.0, tag.far_field_distance());

  // 3. Put it at the roadside and drive past at 3 m lateral distance.
  ros::scene::Scene world;
  world.add_tag(std::move(tag), {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  const ros::scene::StraightDrive drive({.lane_offset_m = 3.0,
                                         .speed_mps = 2.0,
                                         .start_x_m = -2.5,
                                         .end_x_m = 2.5});

  // 4. Interrogate with the full pipeline (TI IWR1443 FMCW parameters):
  // synthesize every radar frame in both Tx polarizations, build the
  // point cloud, cluster, discriminate the tag, then decode its RCS
  // spectrum. frame_stride 5 = a representative 200 Hz frame rate.
  ros::pipeline::InterrogatorConfig cfg;
  cfg.frame_stride = 5;
  const ros::pipeline::Interrogator interrogator(cfg);
  const auto report = interrogator.run(world, drive);

  // 5. Report: detection funnel, stage timings, decoded payload.
  const auto& tel = report.telemetry;
  printf("funnel: %zu frames -> %zu points -> %zu clusters -> "
         "%zu candidates -> %zu tag(s)%s\n",
         tel.n_frames, tel.n_points, tel.n_clusters, tel.n_candidates,
         tel.n_tags, tel.funnel_consistent() ? "" : "  [INCONSISTENT]");
  // Layer times are measured thread time: with several threads the
  // frame layers can add up to more than the read's wall time.
  printf("stage timings (of %.1f ms total):\n", tel.total_ms);
  for (const auto& s : tel.stages) {
    printf("  %-18s %8.2f ms\n", s.stage.c_str(), s.ms);
  }

  if (report.tags.empty()) {
    printf("NO TAG DECODED\n");
    return 1;
  }
  const auto& readout = report.tags.front();
  const auto& quality = tel.tags.front();
  printf("mean spotlighted RSS: %.1f dBm over %zu samples, "
         "read SNR %.1f dB\n",
         quality.mean_rss_dbm, quality.n_samples, quality.snr_db);
  printf("decoded bits:  ");
  for (bool b : readout.decode.bits) printf("%d", int(b));
  printf("\nslot amplitudes (vs threshold %.2f):",
         readout.decode.threshold);
  for (double a : readout.decode.slot_amplitudes) printf(" %.2f", a);
  printf("\n%s\n", readout.decode.bits == bits ? "round trip OK"
                                               : "ROUND TRIP FAILED");
  return readout.decode.bits == bits ? 0 : 1;
}
