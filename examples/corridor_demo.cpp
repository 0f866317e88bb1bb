// Corridor demo: one minute of traffic through a three-tag road
// segment, run through the sharded ros::corridor fleet engine. Shows
// the service-side view of the runtime: per-tag payloads decoded for a
// whole fleet, plus the obs snapshot an operator would scrape —
// throughput (tag reads/s, decode frames/s) and read-latency
// percentiles from the corridor.read.ms histogram.
#include <cstdio>
#include <string>
#include <vector>

#include "ros/corridor/engine.hpp"
#include "ros/obs/metrics.hpp"

namespace {

std::string bits_to_string(const std::vector<bool>& bits) {
  std::string s;
  for (bool b : bits) s += b ? '1' : '0';
  return s;
}

}  // namespace

int main() {
  namespace rc = ros::corridor;

  // A 12 m segment with three installations, read by ~60 s of traffic
  // (40 vehicles, one every 1.5 s).
  rc::CorridorSpec spec;
  spec.seed = 7;
  spec.segment_length_m = 12.0;
  spec.tags = {
      rc::TagSpec{.position_m = 3.0, .bits = {true, false, true, true}},
      rc::TagSpec{.position_m = 6.5, .bits = {true, true, false, true}},
      rc::TagSpec{.position_m = 10.0, .bits = {false, true, true, true}},
  };
  spec.traffic.n_vehicles = 40;
  spec.traffic.headway_s = 1.5;
  spec.traffic.min_speed_mps = 1.8;
  spec.traffic.max_speed_mps = 2.6;
  spec.config.frame_stride = 20;  // 50 decode frames per second

  printf("corridor: %zu tags, %zu vehicles, ~%.0f s of traffic\n",
         spec.tags.size(), spec.traffic.n_vehicles,
         static_cast<double>(spec.traffic.n_vehicles) *
             spec.traffic.headway_s);
  const rc::CorridorResult result = rc::run_corridor(spec);
  const rc::CorridorStats& st = result.stats;

  // Per-tag decode tally.
  for (std::size_t t = 0; t < spec.tags.size(); ++t) {
    std::size_t ok = 0;
    std::size_t total = 0;
    for (const auto& r : result.reads) {
      if (r.tag_index != t) continue;
      ++total;
      ok += r.result.decode.bits == spec.tags[t].bits ? 1u : 0u;
    }
    printf("tag %zu @ %.1f m (bits %s): %zu/%zu fleet reads correct\n",
           t, spec.tags[t].position_m,
           bits_to_string(spec.tags[t].bits).c_str(), ok, total);
  }

  // The obs snapshot: what a scrape of the metrics registry shows after
  // (or during) the run.
  const auto snap = ros::obs::MetricsRegistry::global().snapshot();
  double p50 = 0.0;
  double p99 = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.name == "corridor.read.ms") {
      p50 = h.quantile(0.50);
      p99 = h.quantile(0.99);
    }
  }
  const double wall_s = st.wall_ms / 1000.0;

  printf("\n-- runtime snapshot --\n");
  printf("sim time          %8.1f s   (wall %.2f s)\n", st.sim_time_s,
         wall_s);
  printf("reads completed   %8zu     (%.1f reads/s)\n",
         st.reads_completed,
         wall_s > 0.0 ? static_cast<double>(st.reads_completed) / wall_s
                      : 0.0);
  printf("frames processed  %8zu     (%.0f frames/s)\n",
         st.frames_processed,
         wall_s > 0.0
             ? static_cast<double>(st.frames_processed) / wall_s
             : 0.0);
  printf("read latency      p50 %.0f ms, p99 %.0f ms\n", p50, p99);
  printf("peak concurrency  %8zu sessions (%zu objects created, "
         "%zu rebinds)\n",
         st.peak_active_sessions, st.sessions_created,
         st.sessions_recycled);

  if (st.reads_decoded == 0) {
    printf("\nno read decoded -- check the corridor setup\n");
    return 1;
  }
  return 0;
}
