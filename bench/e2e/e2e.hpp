// rosbench_e2e: end-to-end and per-layer benchmark of the RoS pipeline.
//
// Three workloads (README.md says why each was chosen) run through the
// library's public entry points only. An untraced run times whole reads;
// a traced run replays a fixed subset of the same reads from the public
// layer calls, with spans recorded here, in the benchmark, around each
// call. Nothing inside the library is instrumented for this.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ros/obs/json_parse.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/scene.hpp"
#include "ros/scene/trajectory.hpp"

namespace e2e {

/// One reported metric. The value is the median of `samples` (one per
/// timed rep, traced iteration or set-up); the quartiles of the same
/// samples give the within-run spread.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Everything one invocation measured and checked.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< reads run (timed reps or replays)
  std::uint64_t failed = 0;     ///< reads that failed a correctness check
  std::vector<std::string> failures;  ///< one line per failed check

  void add(std::string name, std::string unit, std::vector<double> samples);
  /// Record a correctness check; a failure condemns `reads` reads.
  void check(bool ok, std::string what, std::uint64_t reads = 0);
  bool correct() const { return failures.empty(); }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 30.0;  ///< timed budget; at least two reps always run
  bool smoke = false;     ///< toy-sized inputs for the ctest smoke test
  std::string trace_out;  ///< Chrome trace path for traced runs ("" = none)
};

const std::vector<std::string>& workload_names();
std::size_t workload_threads(const std::string& workload);

/// Untraced run: set-up (three times), then timed reps for opts.seconds.
/// Emits every end-to-end metric.
RunResult run_timed(const RunOptions& opts);

/// Traced run: set-up, then reference + replay iterations at one thread
/// for opts.seconds. Emits every per-layer metric.
RunResult run_traced(const RunOptions& opts);

/// Median and the quartiles Python's statistics.quantiles(v, n=4) gives
/// (its default "exclusive" method); q1 == q3 == median for one sample.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Spread spread_of(const std::vector<double>& v);

/// `rosbench_e2e compare A B`: diff two result files (see README.md).
int compare_main(int argc, char** argv);

/// Read and parse one JSON document; nullopt when unreadable or invalid.
std::optional<ros::obs::JsonValue> load_json_file(const std::string& path);

/// `obj[key]` as a string; "" when absent or not a string.
std::string string_field(const ros::obs::JsonValue& obj, const char* key);

// ---- traced replay --------------------------------------------------

/// The layers a read is split into. `read` is the parent span of one
/// replayed read; every other layer is a leaf inside it.
enum class Layer : std::uint8_t {
  read,
  track,       ///< trajectory + TrackingModel::estimate
  returns,     ///< Scene::frame_returns_into
  synthesize,  ///< WaveformSynthesizer::synthesize_into
  range_fft,   ///< range_fft_into
  detect,      ///< detect_points (full mode)
  merge,       ///< accumulate into the point cloud (full mode)
  cluster,     ///< extract_clusters + filter_dense (full mode)
  sample,      ///< spotlight RSS sampling
  classify,    ///< classify_cluster (full mode)
  decode,      ///< to_decoder_series + TagDecoder
};
inline constexpr std::size_t kLayers = 11;
const char* layer_name(Layer layer);

/// Deterministic work counts, computed from the inputs and outputs of
/// the layer calls. They repeat exactly from run to run.
struct Work {
  std::uint64_t reads = 0;
  std::uint64_t frames = 0;
  std::uint64_t returns = 0;        ///< scatter returns fed to synthesis
  std::uint64_t tone_samples = 0;   ///< returns x Rx x chirp samples
  std::uint64_t noise_samples = 0;  ///< noisy Rx x chirp samples
  std::uint64_t fft_points = 0;
  std::uint64_t cfar_cells = 0;
  std::uint64_t detections = 0;
  std::uint64_t cloud_points = 0;
  std::uint64_t dense_clusters = 0;
  std::uint64_t candidates = 0;
  std::uint64_t clutter_clusters = 0;  ///< candidates away from the tag
  std::uint64_t false_tags = 0;        ///< clutter classified as tag
  std::uint64_t samples = 0;           ///< spotlight RSS samples
  std::uint64_t decodes = 0;
  std::uint64_t series_len = 0;        ///< decoder input samples

  bool operator==(const Work&) const = default;
};

/// In-memory span recorder. Spans are written out only at the end.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  template <typename Body>
  void span(Layer layer, Body&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    spans_.push_back({layer, read_id_, t0, Clock::now()});
  }

  /// One replayed read: a parent span around the layer spans.
  template <typename Body>
  void read(Body&& body) {
    ++read_id_;
    ++work.reads;
    span(Layer::read, body);
  }

  /// Summed span time per layer [s]. Layer spans are leaves, so this is
  /// their self time; the `read` entry is the parent span's total.
  std::array<double, kLayers> seconds_by_layer() const;

  /// Chrome trace_event JSON of every span.
  bool write_chrome_trace(const std::string& path,
                          const std::string& process) const;

  Work work;

 private:
  struct Span {
    Layer layer;
    std::uint32_t read;
    Clock::time_point t0;
    Clock::time_point t1;
  };
  std::vector<Span> spans_;
  std::uint32_t read_id_ = 0;
};

/// decode_drive, rebuilt from its layer calls. `keep_profiles` mirrors
/// how the reference holds range profiles: decode_drive keeps every
/// frame's profile until the pass ends; the corridor's streaming sessions
/// sample each frame's profile and reuse its storage.
ros::pipeline::DecodeDriveResult replay_decode(
    Tracer& tracer, const ros::scene::Scene& scene,
    const ros::scene::StraightDrive& drive,
    const ros::scene::Vec2& tag_position,
    const ros::pipeline::InterrogatorConfig& config, bool keep_profiles);

/// Interrogator::run, rebuilt from its layer calls.
ros::pipeline::InterrogationReport replay_full(
    Tracer& tracer, const ros::scene::Scene& scene,
    const ros::scene::StraightDrive& drive,
    const ros::pipeline::InterrogatorConfig& config);

/// Full-mode replay equality: cloud size, clusters, candidate verdicts,
/// and every decoded tag's bits and slot amplitudes, compared exactly.
bool same_report(const ros::pipeline::InterrogationReport& a,
                 const ros::pipeline::InterrogationReport& b);

}  // namespace e2e
