// Shared harness for the figure-reproduction benchmarks.
//
// Each bench file defines its body with ROS_BENCH(name) { ... } instead
// of main(); the body receives a bench::BenchContext carrying the
// output stream, the --quick flag, and the fidelity scorecard. Two
// drivers run the registered bodies:
//   * bench_main.cpp links with ONE bench file per binary and preserves
//     the classic behavior: run once, print the CSV blocks on stdout
//     (`for b in build/bench/*; do $b; done` regenerates the paper's
//     evaluation). `--time` additionally measures warmup+reps through
//     ros::obs::run_timed.
//   * rosbench.cpp links with ALL bench files, times every body, and
//     emits one canonical BENCH_<timestamp>.json with timing stats,
//     metrics snapshots, and the fidelity scorecard (see EXPERIMENTS.md
//     for the schema and bench_compare for the CI gate).
#pragma once

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ros/common/angles.hpp"
#include "ros/common/csv.hpp"
#include "ros/common/units.hpp"
#include "ros/dsp/ook.hpp"
#include "ros/em/material.hpp"
#include "ros/obs/bench.hpp"
#include "ros/obs/crash.hpp"
#include "ros/obs/export.hpp"
#include "ros/obs/json.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/scorecard.hpp"
#include "ros/obs/trace.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/trajectory.hpp"
#include "ros/tag/tag.hpp"

namespace bench {

/// Named steady-state rates (events per second) measured by a bench
/// body, e.g. tag_reads_per_s. rosbench emits them as the per-bench
/// "throughput" JSON object and bench_compare gates them warn-only,
/// like perf. record() overwrites by name so a body run several timed
/// reps keeps the latest measurement instead of accumulating.
class ThroughputSet {
 public:
  void record(std::string_view name, double per_s) {
    for (auto& e : entries_) {
      if (e.first == name) {
        e.second = per_s;
        return;
      }
    }
    entries_.emplace_back(std::string(name), per_s);
  }
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

/// Everything a bench body needs from its driver. `quick` asks the body
/// to trim sweeps to the points the fidelity scorecard needs (fidelity
/// values MUST be computed from the same inputs in quick and full mode,
/// or baseline comparisons would drift).
class BenchContext {
 public:
  BenchContext(bool quick, std::ostream* out,
               ros::obs::Scorecard* scorecard,
               ThroughputSet* throughput = nullptr)
      : quick_(quick),
        out_(out),
        scorecard_(scorecard),
        throughput_(throughput) {}

  bool quick() const { return quick_; }
  std::ostream& out() const { return *out_; }

  /// Record one fidelity check: `value` must land in [lo, hi].
  void fidelity(std::string_view name, double value, double lo, double hi,
                std::string_view note = {}) const {
    if (scorecard_ != nullptr) {
      scorecard_->record(name, value, lo, hi, note);
    }
  }

  /// Record one measured rate (events/second). Drivers without a
  /// throughput sink (bench_main) drop it; rosbench persists it to the
  /// scorecard JSON where bench_compare gates it warn-only.
  void throughput(std::string_view name, double per_s) const {
    if (throughput_ != nullptr) throughput_->record(name, per_s);
  }

  const ros::obs::Scorecard* scorecard() const { return scorecard_; }

 private:
  bool quick_;
  std::ostream* out_;
  ros::obs::Scorecard* scorecard_;
  ThroughputSet* throughput_ = nullptr;
};

using BenchFn = void (*)(const BenchContext&);

struct BenchDef {
  std::string name;  ///< registry key, e.g. "fig15_distance"
  BenchFn fn = nullptr;
  int reps = 5;    ///< default timed repetitions under rosbench/--time
  int warmup = 1;  ///< default untimed warmup runs
};

inline std::vector<BenchDef>& registry() {
  static std::vector<BenchDef> defs;
  return defs;
}

inline bool register_bench(BenchDef def) {
  registry().push_back(std::move(def));
  return true;
}

/// Defines and registers a bench body. Heavy decode_drive sweeps should
/// use ROS_BENCH_OPTS with fewer reps / no warmup to keep rosbench runs
/// bounded.
#define ROS_BENCH_OPTS(bench_name, reps_, warmup_)                        \
  static void ros_bench_body_##bench_name(const bench::BenchContext&);    \
  [[maybe_unused]] static const bool ros_bench_reg_##bench_name =         \
      bench::register_bench(                                              \
          {#bench_name, &ros_bench_body_##bench_name, (reps_),            \
           (warmup_)});                                                   \
  static void ros_bench_body_##bench_name(                                \
      [[maybe_unused]] const bench::BenchContext& ctx)

#define ROS_BENCH(bench_name) ROS_BENCH_OPTS(bench_name, 5, 1)

/// Keeps a computed value alive so the optimizer cannot delete the
/// kernel under test (same trick as google-benchmark's DoNotOptimize).
template <typename T>
inline void do_not_optimize(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile const T* sink = &value;
  (void)sink;
#endif
}

/// Swallow-everything stream for timed reps whose CSV output nobody
/// reads.
inline std::ostream& null_stream() {
  struct NullBuf : std::streambuf {
    int overflow(int c) override { return c; }
  };
  static NullBuf buf;
  static std::ostream os(&buf);
  return os;
}

/// Per-bench observability session.
///
/// Recognized flags (also honored when run without any):
///   --metrics-out=PATH   write a JSON metrics sidecar (all counters,
///                        gauges, and stage-latency histograms the run
///                        accumulated) when the session finishes;
///   --trace-out=PATH     record a Chrome trace_event JSON of every
///                        instrumented span (same as ROS_TRACE_FILE).
/// Construct first thing so the sidecar covers the whole run.
/// Construction resets per-bench metric state in the global registry so
/// repeated sessions in one process (as rosbench does) never accumulate
/// counts across benches; finish() — idempotent, also run by the
/// destructor, so early returns and caught exceptions both land here —
/// writes the sidecar, then flushes and disables the TraceExporter when
/// this session enabled it.
class ObsSession {
 public:
  ObsSession(int argc, char** argv, std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    // Honor the service-grade env switches here so every bench run can
    // stream snapshots and leave crash bundles without driver changes.
    ros::obs::SnapshotExporter::ensure_started_from_env();
    ros::obs::maybe_install_crash_handlers_from_env();
    // Reset per-bench state: instruments registered by a previous
    // session in this process would otherwise leak into our sidecar.
    // Safe here because no pipeline code holds instrument references
    // across calls.
    ros::obs::MetricsRegistry::global().clear();
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!ros::obs::arg_take_value(arg, "--metrics-out", argc, argv, i,
                                    &metrics_out_)) {
        std::string trace_out;
        if (ros::obs::arg_take_value(arg, "--trace-out", argc, argv, i,
                                     &trace_out)) {
          ros::obs::TraceExporter::global().enable(std::move(trace_out));
          owns_trace_ = true;
        }
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() { finish(); }

  /// Flush all sinks; safe to call multiple times and from unwind
  /// paths. The trace is flushed before being disabled so the file is
  /// complete even though the global exporter outlives the session.
  void finish() noexcept {
    if (finished_) return;
    finished_ = true;
    write_sidecar();
    if (owns_trace_) {
      ros::obs::TraceExporter::global().flush();
      ros::obs::TraceExporter::global().disable();
    }
  }

  const std::string& metrics_out() const { return metrics_out_; }

  /// {"bench": name, "metrics": <registry snapshot>}.
  std::string sidecar_json() const {
    std::string out = "{\"bench\":\"";
    out += ros::obs::json_escape(bench_name_);
    out += "\",\"metrics\":";
    out += ros::obs::MetricsRegistry::global().to_json();
    out += "}";
    return out;
  }

 private:
  void write_sidecar() const noexcept {
    if (metrics_out_.empty()) return;
    const std::string json = sidecar_json();
    std::FILE* f = std::fopen(metrics_out_.c_str(), "w");
    if (f == nullptr) {
      ROS_LOG_ERROR("bench", "cannot open metrics sidecar",
                    ros::obs::kv("path", metrics_out_));
      return;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "# metrics sidecar written to %s\n",
                 metrics_out_.c_str());
  }

  std::string bench_name_;
  std::string metrics_out_;
  bool owns_trace_ = false;
  bool finished_ = false;
};

inline const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

/// The canonical micro-benchmark bit pattern: both classes present.
inline std::vector<bool> truth_bits() { return {true, false, true, true}; }

/// Scene with one default tag at the origin encoding `bits`.
inline ros::scene::Scene tag_scene(const std::vector<bool>& bits,
                                   int psvaas_per_stack = 32,
                                   bool beam_shaped = true,
                                   ros::scene::Weather weather =
                                       ros::scene::Weather::clear) {
  ros::scene::Scene world(weather);
  world.add_tag(
      ros::tag::make_default_tag(bits, &stackup(), psvaas_per_stack,
                                 beam_shaped),
      {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  return world;
}

/// Straight pass at `lane` metres, spanning x in [-half, half].
inline ros::scene::StraightDrive drive(double lane = 3.0,
                                       double speed_mps = 2.0,
                                       double half_span = 2.5,
                                       double radar_height = 0.0) {
  return ros::scene::StraightDrive({.lane_offset_m = lane,
                                    .speed_mps = speed_mps,
                                    .start_x_m = -half_span,
                                    .end_x_m = half_span,
                                    .radar_height_m = radar_height});
}

/// Decoding SNR statistics from repeated interrogations: runs
/// decode_drive with `n_trials` noise seeds, pools slot amplitudes by
/// ground-truth class, returns (snr_db, mean_rss_dbm, all_correct).
struct SnrResult {
  double snr_db = 0.0;
  double ber = 0.5;
  double mean_rss_dbm = -200.0;
  bool all_correct = true;
};

inline SnrResult measure_snr(const ros::scene::Scene& world,
                             const ros::scene::StraightDrive& drv,
                             const std::vector<bool>& bits,
                             ros::pipeline::InterrogatorConfig config,
                             int n_trials = 3,
                             std::uint64_t seed_base = 1000) {
  std::vector<double> ones;
  std::vector<double> zeros;
  SnrResult out;
  double rss_w = 0.0;
  ros::common::Rng jitter(99);
  for (int t = 0; t < n_trials; ++t) {
    config.noise_seed = seed_base + 17 * static_cast<std::uint64_t>(t);
    // Per-trial geometry jitter, emulating repeated real drive-bys
    // (mounting tolerance, lateral wander, tag sway).
    auto params = drv.params();
    params.lane_offset_m += jitter.normal(0.0, 0.03);
    params.radar_height_m += jitter.normal(0.0, 0.015);
    params.start_x_m += jitter.normal(0.0, 0.05);
    params.end_x_m += jitter.normal(0.0, 0.05);
    const ros::scene::StraightDrive trial_drive(params);
    const auto r =
        ros::pipeline::decode_drive(world, trial_drive, {0.0, 0.0}, config);
    for (std::size_t k = 0; k < bits.size(); ++k) {
      (bits[k] ? ones : zeros).push_back(r.decode.slot_amplitudes[k]);
    }
    out.all_correct = out.all_correct && (r.decode.bits == bits);
    rss_w += ros::common::dbm_to_watt(r.mean_rss_dbm);
  }
  const double snr = ros::dsp::ook_snr(ones, zeros);
  out.snr_db = ros::common::linear_to_db(snr);
  out.ber = ros::dsp::ook_ber(snr);
  out.mean_rss_dbm =
      ros::common::watt_to_dbm(rss_w / static_cast<double>(n_trials));
  return out;
}

inline void print(const BenchContext& ctx,
                  const ros::common::CsvTable& table) {
  table.print(ctx.out());
  ctx.out() << "\n";
}

}  // namespace bench
