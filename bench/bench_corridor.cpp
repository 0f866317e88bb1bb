// Fleet-scale corridor soak bench: a two-tag road segment under dense
// traffic, run through the sharded ros::corridor scheduler. Times the
// whole fleet, reports steady-state throughput (tag reads/s, decode
// frames/s) and read-latency percentiles, and re-checks the corridor's
// deterministic contract on the exact same inputs:
//   * the soak sustains >= 100 concurrent sessions at its peak;
//   * sampled corridor readouts equal the same session run standalone
//     through decode_drive, bit for bit;
//   * a trimmed corridor digests identically at 1 thread and 4 threads.
// Timing and rates are host-dependent: they land in gauges, the
// throughput section, and the CSV — never in the fidelity scorecard.
#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ros/corridor/engine.hpp"
#include "ros/exec/thread_pool.hpp"

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

/// The soak corridor. Sized for sustained concurrency: session duration
/// is ~2.3 s (5 m capture span at ~2.2 m/s) and one vehicle enters
/// every 40 ms, so steady state carries ~2.3 / 0.04 * 2 tags ~ 115
/// overlapping sessions — comfortably past the >= 100 law. Identical in
/// quick and full mode (the fidelity laws must see the same inputs).
ros::corridor::CorridorSpec soak_spec() {
  ros::corridor::CorridorSpec spec;
  spec.seed = 2026;
  spec.segment_length_m = 10.0;
  spec.tags = {
      ros::corridor::TagSpec{.position_m = 3.0,
                             .bits = {true, false, true, true}},
      ros::corridor::TagSpec{.position_m = 7.0,
                             .bits = {false, true, true, false}},
  };
  spec.traffic.n_vehicles = 150;
  spec.traffic.headway_s = 0.04;
  spec.traffic.min_speed_mps = 1.8;
  spec.traffic.max_speed_mps = 2.6;
  // 50 decode frames/s: ~115 frames per pass, enough spatial sampling
  // for reliable payload decode at fleet scale (coarser strides start
  // flipping bits).
  spec.config.frame_stride = 20;
  spec.tick_s = 0.05;
  return spec;
}

}  // namespace

// One rep, no warmup: a single soak is ~30k decode frames and the
// within-run rates are already averages over the whole fleet.
ROS_BENCH_OPTS(corridor, 1, 0) {
  namespace rc = ros::corridor;
  using ros::exec::ThreadPool;

  const rc::CorridorSpec spec = soak_spec();
  const rc::CorridorResult soak = rc::run_corridor(spec);
  const rc::CorridorStats& st = soak.stats;

  const double wall_s = st.wall_ms / 1000.0;
  const double reads_per_s =
      wall_s > 0.0 ? static_cast<double>(st.reads_completed) / wall_s : 0.0;
  const double frames_per_s =
      wall_s > 0.0
          ? static_cast<double>(st.frames_processed) / wall_s
          : 0.0;

  std::vector<double> latencies;
  for (const auto& r : soak.reads) {
    if (r.completed) latencies.push_back(r.latency_ms);
  }
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);

  // Sampled standalone-equivalence law: ~10 sessions spread across the
  // fleet, each re-run cold through the batch decode_drive reference.
  const auto plans = rc::plan_sessions(spec);
  bool matches = soak.reads.size() == plans.size();
  const std::size_t step = std::max<std::size_t>(1, plans.size() / 10);
  for (std::size_t p = 0; matches && p < plans.size(); p += step) {
    matches = rc::same_read(soak.reads[p].result,
                            rc::standalone_read(spec, plans[p]));
  }

  // Thread-invariance law on a trimmed fleet (the full soak twice over
  // would double the bench; determinism is schedule-independent, so a
  // small corridor exercises the same property).
  rc::CorridorSpec small = spec;
  small.vehicles.clear();
  small.traffic.n_vehicles = 8;
  ThreadPool::set_global_threads(1);
  const std::uint64_t digest_1t = rc::result_digest(rc::run_corridor(small));
  ThreadPool::set_global_threads(4);
  const std::uint64_t digest_4t = rc::result_digest(rc::run_corridor(small));
  ThreadPool::set_global_threads(ros::exec::default_threads());

  auto& reg = ros::obs::MetricsRegistry::global();

  ros::common::CsvTable table(
      "corridor: fleet soak (" + std::to_string(soak.reads.size()) +
          " reads, " + std::to_string(st.frames_processed) + " frames)",
      {"metric", "value"});
  table.add_row("wall_ms", {st.wall_ms});
  table.add_row("tag_reads_per_s", {reads_per_s});
  table.add_row("frames_per_s", {frames_per_s});
  table.add_row("read_ms_p50", {p50});
  table.add_row("read_ms_p99", {p99});
  table.add_row("peak_active_sessions",
                {static_cast<double>(st.peak_active_sessions)});
  table.add_row("sessions_created",
                {static_cast<double>(st.sessions_created)});
  table.add_row("sessions_recycled",
                {static_cast<double>(st.sessions_recycled)});
  bench::print(ctx, table);

  ctx.throughput("tag_reads_per_s", reads_per_s);
  ctx.throughput("frames_per_s", frames_per_s);
  reg.gauge("corridor.bench.read_ms_p50").set(p50);
  reg.gauge("corridor.bench.read_ms_p99").set(p99);
  reg.gauge("corridor.bench.tag_reads_per_s").set(reads_per_s);
  reg.gauge("corridor.bench.frames_per_s").set(frames_per_s);

  ctx.fidelity("corridor_peak_active_sessions",
               static_cast<double>(st.peak_active_sessions), 100.0, 1e9,
               "soak sustains >= 100 concurrent sessions");
  ctx.fidelity("corridor_all_reads_complete",
               st.reads_completed == soak.reads.size() ? 1.0 : 0.0, 1.0,
               1.0, "every planned (vehicle, tag) read finalizes");
  ctx.fidelity("corridor_matches_standalone", matches ? 1.0 : 0.0, 1.0,
               1.0,
               "sampled corridor readouts equal standalone decode_drive");
  ctx.fidelity("corridor_thread_invariant",
               digest_1t == digest_4t ? 1.0 : 0.0, 1.0, 1.0,
               "corridor digest identical at 1 and 4 threads");
  std::size_t correct = 0;
  for (const auto& r : soak.reads) {
    correct += r.result.decode.bits ==
                       spec.tags[r.tag_index].bits
                   ? 1u
                   : 0u;
  }
  ctx.fidelity("corridor_fleet_accuracy",
               soak.reads.empty()
                   ? 0.0
                   : static_cast<double>(correct) /
                         static_cast<double>(soak.reads.size()),
               0.9, 1.0,
               "fleet-wide payload accuracy at soak geometry");
}
