// The three workloads, the timed run, and the traced run.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "e2e.hpp"
#include "ros/common/random.hpp"
#include "ros/corridor/engine.hpp"
#include "ros/em/material.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/stats.hpp"
#include "ros/scene/objects.hpp"
#include "ros/tag/tag.hpp"

namespace e2e {

namespace rc = ros::corridor;
namespace rp = ros::pipeline;
namespace rs = ros::scene;
using ros::common::derive_stream_seed;
using ros::exec::ThreadPool;

void RunResult::add(std::string name, std::string unit,
                    std::vector<double> samples) {
  metrics.push_back({std::move(name), std::move(unit), std::move(samples)});
}

void RunResult::check(bool ok, std::string what, std::uint64_t reads) {
  if (ok) return;
  failures.push_back(std::move(what));
  failed += reads;
}

Spread spread_of(const std::vector<double>& v) {
  Spread s;
  if (v.empty()) return s;
  std::vector<double> d = v;
  std::sort(d.begin(), d.end());
  s.median = ros::obs::median(d);
  if (d.size() == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(d, n=4, method="exclusive"), in its integer math.
  const auto n = static_cast<long long>(d.size());
  const auto cut = [&](long long i) {
    const long long m = n + 1;
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (d[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            d[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per run (setup_s is their median) and the floor on timed reps
// and traced iterations, so every run has a spread and a cross-rep
// digest comparison.
constexpr int kSetups = 5;
constexpr std::size_t kMinReps = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<bool> kBits = {true, false, true, true};

/// A candidate cluster this close to the tag's true position is the tag;
/// farther ones are clutter (the nearest clutter sits ~1.3 m away).
constexpr double kTagRadiusM = 0.5;

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

rs::StraightDrive pass_at(double lane_m) {
  return rs::StraightDrive({.lane_offset_m = lane_m,
                            .speed_mps = 2.0,
                            .start_x_m = -2.5,
                            .end_x_m = 2.5});
}

/// FNV-1a over the deterministic fields of a rep's output, as
/// corridor::result_digest does for corridor records.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void add_decode(const ros::tag::DecodeResult& d) {
    add(d.bits.size());
    for (const bool b : d.bits) add(b);
    add(d.slot_amplitudes.size());
    for (const double a : d.slot_amplitudes) add(a);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// One timed rep over a workload's full input set.
struct Rep {
  double wall_s = 0.0;
  std::size_t frames = 0;
  std::vector<double> read_ms;
  std::size_t reads_ok = 0;
  std::size_t bits = 0;
  std::size_t bits_ok = 0;
  std::uint64_t digest = 0;

  /// Book one read. It succeeds only when every bit matches; a no-read
  /// (empty payload) misses every bit.
  void count(double ms, const std::vector<bool>& got,
             const std::vector<bool>& truth) {
    read_ms.push_back(ms);
    reads_ok += got == truth ? 1 : 0;
    bits += truth.size();
    for (std::size_t k = 0; k < truth.size() && k < got.size(); ++k) {
      bits_ok += got[k] == truth[k] ? 1 : 0;
    }
  }
};

/// Corridor scheduler occupancy of one reference run (zeros elsewhere).
struct SchedStats {
  double active_mean = 0.0;
  double peak = 0.0;
  double created = 0.0;
};

/// One traced round: wall time of the reference and of the replay, and
/// how many replayed reads differ from their reference.
struct TraceRound {
  double reference_s = 0.0;
  double replay_s = 0.0;
  std::size_t mismatches = 0;
};

/// Run `body`, adding its wall time to `seconds`.
template <typename Body>
auto timed(double& seconds, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  auto result = body();
  seconds += seconds_since(t0);
  return result;
}

/// Time `reference` and `replay` into `round`, in the given order;
/// returns {reference result, replay result}.
template <typename Reference, typename Replay>
auto reference_and_replay(TraceRound& round, bool reference_first,
                          Reference&& reference, Replay&& replay) {
  if (reference_first) {
    auto ref = timed(round.reference_s, reference);
    return std::pair(std::move(ref), timed(round.replay_s, replay));
  }
  auto rep = timed(round.replay_s, replay);
  return std::pair(timed(round.reference_s, reference), std::move(rep));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// One read, to warm the pool, per-thread caches and lazy set-up.
  virtual void warmup() = 0;
  /// One timed rep over the full input set; failed checks go to `out`.
  virtual Rep rep(RunResult& out) = 0;
  /// Checks that need a rep's output and more reads (outside timing).
  virtual void post_checks(RunResult& /*out*/) {}
  /// The traced subset through the normal entry point.
  virtual SchedStats reference() = 0;
  /// The traced subset through the normal entry point (the reference)
  /// and rebuilt from layer calls (the replay). Independent reads are
  /// paired one by one, and the side that runs first alternates with
  /// `reference_first` and from read to read, so a drift in host speed
  /// hits both sides alike.
  virtual TraceRound trace_round(Tracer& tracer, bool reference_first) = 0;
};

// ---- corridor_soak --------------------------------------------------

/// The corridor soak: two tags, one vehicle every 40 ms, ~2.3 s sessions,
/// so ~115 sessions overlap in steady state.
rc::CorridorSpec soak_spec(std::uint64_t seed, std::size_t vehicles) {
  rc::CorridorSpec spec;
  spec.seed = seed;
  spec.segment_length_m = 10.0;
  spec.tags = {
      rc::TagSpec{.position_m = 3.0, .bits = {true, false, true, true}},
      rc::TagSpec{.position_m = 7.0, .bits = {false, true, true, false}},
  };
  spec.traffic.n_vehicles = vehicles;
  spec.traffic.headway_s = 0.04;
  spec.traffic.min_speed_mps = 1.8;
  spec.traffic.max_speed_mps = 2.6;
  spec.config.frame_stride = 20;
  spec.tick_s = 0.05;
  return spec;
}

class CorridorSoak final : public Workload {
 public:
  CorridorSoak(std::uint64_t seed, bool smoke)
      : spec_(soak_spec(seed, smoke ? 6 : 150)),
        plans_(rc::plan_sessions(spec_)),
        trace_spec_(soak_spec(seed, smoke ? 3 : 30)),
        trace_plans_(rc::plan_sessions(trace_spec_)) {
    for (const rc::TagSpec& tag : trace_spec_.tags) {
      trace_scenes_.push_back(rc::tag_scene_of(tag, trace_spec_.weather));
    }
  }

  void warmup() override {
    (void)rc::standalone_read(spec_, plans_.front());
  }

  Rep rep(RunResult& out) override {
    rc::CorridorEngine engine(spec_);
    const Clock::time_point t0 = Clock::now();
    while (engine.tick()) {
    }
    Rep r;
    r.wall_s = seconds_since(t0);
    const rc::CorridorResult& result = engine.result();
    r.frames = result.stats.frames_processed;
    for (const rc::ReadRecord& rec : result.reads) {
      r.count(rec.latency_ms, rec.result.decode.bits,
              spec_.tags[rec.tag_index].bits);
      out.check(rec.completed,
                "corridor session of vehicle " +
                    std::to_string(rec.vehicle_id) + " did not finalize",
                1);
    }
    r.digest = rc::result_digest(result);
    if (!first_) first_ = result;
    return r;
  }

  void post_checks(RunResult& out) override {
    for (std::size_t p = 0; p < plans_.size(); p += 30) {
      out.check(rc::same_read(first_->reads[p].result,
                              rc::standalone_read(spec_, plans_[p])),
                "corridor session " + std::to_string(p) +
                    " differs from standalone decode_drive",
                1);
    }
  }

  SchedStats reference() override {
    rc::CorridorEngine engine(trace_spec_);
    double active = 0.0;
    std::size_t ticks = 0;
    bool more = true;
    while (more) {
      more = engine.tick();
      active += static_cast<double>(engine.active_sessions());
      ++ticks;
    }
    reference_ = engine.result();
    const rc::CorridorStats& st = engine.stats();
    return {active / static_cast<double>(ticks),
            static_cast<double>(st.peak_active_sessions),
            static_cast<double>(st.sessions_created)};
  }

  TraceRound trace_round(Tracer& tracer, bool reference_first) override {
    // Sessions share the scheduler's ticks, so the whole corridor is one
    // reference, replayed session by session.
    TraceRound round;
    const auto [sched, reads] = reference_and_replay(
        round, reference_first, [&] { return reference(); },
        [&] {
          std::vector<rp::DecodeDriveResult> out;
          for (const rc::SessionPlan& plan : trace_plans_) {
            out.push_back(replay_decode(
                tracer, trace_scenes_[plan.tag_index],
                rs::StraightDrive(plan.drive), {0.0, 0.0},
                rc::session_config(trace_spec_, plan),
                /*keep_profiles=*/false));
          }
          return out;
        });
    for (std::size_t p = 0; p < reads.size(); ++p) {
      round.mismatches +=
          rc::same_read(reads[p], reference_.reads[p].result) ? 0 : 1;
    }
    return round;
  }

 private:
  rc::CorridorSpec spec_;
  std::vector<rc::SessionPlan> plans_;
  std::optional<rc::CorridorResult> first_;
  rc::CorridorSpec trace_spec_;
  std::vector<rc::SessionPlan> trace_plans_;
  std::vector<rs::Scene> trace_scenes_;
  rc::CorridorResult reference_;
};

// ---- roadside_full --------------------------------------------------

/// The tag beside every clutter class of the paper's detection study
/// (Fig. 13), all within the pass.
rs::Scene roadside_scene() {
  rs::Scene world;
  world.add_tag(ros::tag::make_default_tag(kBits, &stackup()),
                {{0.0, 0.0}, {0.0, 1.0}, 0.0});
  world.add_clutter(rs::tripod_params({1.3, 0.4}));
  world.add_clutter(rs::street_lamp_params({2.4, 0.5}));
  world.add_clutter(rs::road_sign_params({-1.6, 0.6}));
  world.add_clutter(rs::parking_meter_params({-2.6, 0.2}));
  world.add_clutter(rs::tree_params({4.2, 1.0}));
  world.add_clutter(rs::pedestrian_params({-3.4, 1.2}));
  return world;
}

void add_report(Digest& d, const rp::InterrogationReport& report) {
  d.add(report.n_frames);
  d.add(report.cloud.points.size());
  d.add(report.clusters.size());
  for (const rp::Cluster& c : report.clusters) {
    d.add(c.n_points);
    d.add(c.centroid.x);
    d.add(c.centroid.y);
  }
  for (const rp::TagCandidate& c : report.candidates) {
    d.add(c.is_tag);
    d.add(c.rss_loss_db);
  }
  for (const rp::TagReadout& t : report.tags) d.add_decode(t.decode);
}

bool near_tag(const rp::Cluster& cluster) {
  return cluster.centroid.norm() < kTagRadiusM;
}

class RoadsideFull final : public Workload {
 public:
  RoadsideFull(std::uint64_t seed, bool smoke) : world_(roadside_scene()) {
    const std::vector<double> lanes =
        smoke ? std::vector<double>{3.0} : std::vector<double>{3.0, 3.5};
    const int seeds = smoke ? 1 : 2;
    for (const double lane : lanes) {
      for (int s = 0; s < seeds; ++s) {
        rp::InterrogatorConfig config;
        config.frame_stride = smoke ? 8 : 2;
        config.noise_seed = derive_stream_seed(seed, passes_.size());
        passes_.push_back({pass_at(lane), config});
      }
    }
  }

  void warmup() override { (void)run(passes_.front()); }

  Rep rep(RunResult& out) override {
    Rep r;
    Digest digest;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t p = 0; p < passes_.size(); ++p) {
      const Clock::time_point t_read = Clock::now();
      const rp::InterrogationReport report = run(passes_[p]);
      const double ms = 1e3 * seconds_since(t_read);
      std::vector<bool> got;
      for (const rp::TagReadout& t : report.tags) {
        if (near_tag(t.candidate.cluster)) got = t.decode.bits;
      }
      r.count(ms, got, kBits);
      r.frames += report.n_frames;
      out.check(got == kBits,
                "roadside pass " + std::to_string(p) +
                    " did not decode the tag",
                1);
      add_report(digest, report);
    }
    r.wall_s = seconds_since(t0);
    r.digest = digest.value();
    return r;
  }

  SchedStats reference() override {
    (void)run(passes_.front());
    return {};
  }

  TraceRound trace_round(Tracer& tracer, bool reference_first) override {
    const Pass& p = passes_.front();
    TraceRound round;
    const auto [ref, report] = reference_and_replay(
        round, reference_first, [&] { return run(p); },
        [&] { return replay_full(tracer, world_, p.drive, p.config); });
    for (const rp::TagCandidate& c : report.candidates) {
      if (near_tag(c.cluster)) continue;
      ++tracer.work.clutter_clusters;
      if (c.is_tag) ++tracer.work.false_tags;
    }
    round.mismatches = same_report(report, ref) ? 0 : 1;
    return round;
  }

 private:
  struct Pass {
    rs::StraightDrive drive;
    rp::InterrogatorConfig config;
  };

  rp::InterrogationReport run(const Pass& p) const {
    return rp::Interrogator(p.config).run(world_, p.drive);
  }

  rs::Scene world_;
  std::vector<Pass> passes_;
};

// ---- micro_sweep ----------------------------------------------------

class MicroSweep final : public Workload {
 public:
  MicroSweep(std::uint64_t seed, bool smoke) : drive_(pass_at(3.0)) {
    world_.add_tag(ros::tag::make_default_tag(kBits, &stackup()),
                   {{0.0, 0.0}, {0.0, 1.0}, 0.0});
    // The extra noise floor spans the decode cliff on this geometry:
    // -46 dBm always decodes (the anchor the checks pin), -40..-38 dBm
    // fails on some seeds, -34 dBm is past the cliff.
    const std::vector<double> levels =
        smoke ? std::vector<double>{-60.0, -34.0}
              : std::vector<double>{-46.0, -44.0, -42.0, -40.0, -38.0, -34.0};
    const std::uint64_t seeds = smoke ? 1 : 3;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (std::uint64_t k = 0; k < seeds; ++k) {
        rp::InterrogatorConfig config;
        config.frame_stride = smoke ? 16 : 1;
        config.extra_noise_dbm = levels[l];
        config.noise_seed =
            derive_stream_seed(derive_stream_seed(seed, l), k);
        if (k == 0) traced_.push_back(reads_.size());
        reads_.push_back({config, l == 0});
      }
    }
  }

  void warmup() override { (void)run(reads_.front().config); }

  Rep rep(RunResult& out) override {
    Rep r;
    Digest digest;
    const Clock::time_point t0 = Clock::now();
    for (const Read& read : reads_) {
      const Clock::time_point t_read = Clock::now();
      const rp::DecodeDriveResult result = run(read.config);
      r.count(1e3 * seconds_since(t_read), result.decode.bits, kBits);
      r.frames += result.telemetry.n_frames;
      if (read.anchor) {
        out.check(result.decode.bits == kBits,
                  "anchor read at " +
                      std::to_string(read.config.extra_noise_dbm) +
                      " dBm did not decode",
                  1);
      }
      digest.add_decode(result.decode);
      digest.add(result.mean_rss_dbm);
    }
    r.wall_s = seconds_since(t0);
    r.digest = digest.value();
    return r;
  }

  SchedStats reference() override {
    for (const std::size_t i : traced_) (void)run(reads_[i].config);
    return {};
  }

  TraceRound trace_round(Tracer& tracer, bool reference_first) override {
    TraceRound round;
    for (std::size_t t = 0; t < traced_.size(); ++t) {
      const rp::InterrogatorConfig& config = reads_[traced_[t]].config;
      const auto [ref, read] = reference_and_replay(
          round, reference_first == (t % 2 == 0),
          [&] { return run(config); },
          [&] {
            return replay_decode(tracer, world_, drive_, {0.0, 0.0}, config,
                                 /*keep_profiles=*/true);
          });
      round.mismatches += rc::same_read(read, ref) ? 0 : 1;
    }
    return round;
  }

 private:
  struct Read {
    rp::InterrogatorConfig config;
    bool anchor = false;  ///< lowest noise level: must always decode
  };

  rp::DecodeDriveResult run(const rp::InterrogatorConfig& config) const {
    return rp::decode_drive(world_, drive_, {0.0, 0.0}, config);
  }

  rs::Scene world_;
  rs::StraightDrive drive_;
  std::vector<Read> reads_;
  std::vector<std::size_t> traced_;  ///< one seed across all levels
};

// ---- runs -----------------------------------------------------------

struct WorkloadDef {
  const char* name;
  std::size_t threads;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool smoke);
};

template <typename W>
std::unique_ptr<Workload> make(std::uint64_t seed, bool smoke) {
  return std::make_unique<W>(seed, smoke);
}

constexpr std::array<WorkloadDef, 3> kWorkloads = {{
    {"corridor_soak", 2, &make<CorridorSoak>},
    {"roadside_full", 1, &make<RoadsideFull>},
    {"micro_sweep", 2, &make<MicroSweep>},
}};

const WorkloadDef& def_of(const std::string& name) {
  for (const WorkloadDef& d : kWorkloads) {
    if (name == d.name) return d;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

struct Setup {
  std::unique_ptr<Workload> workload;
  std::vector<double> total_s;
  std::vector<double> inputs_s;
  std::vector<double> warmup_s;
};

/// Size the pool, then build the inputs and run one warm-up read, kSetups
/// times; the last set-up's workload is the one measured.
Setup set_up(const RunOptions& opts) {
  const WorkloadDef& def = def_of(opts.workload);
  ThreadPool::set_global_threads(workload_threads(opts.workload));
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s.workload.reset();
    const Clock::time_point t0 = Clock::now();
    s.workload = def.make(opts.seed, opts.smoke);
    const double inputs = seconds_since(t0);
    s.workload->warmup();
    const double total = seconds_since(t0);
    s.total_s.push_back(total);
    s.inputs_s.push_back(inputs);
    s.warmup_s.push_back(total - inputs);
  }
  return s;
}

/// Repeat `body` for `seconds`, starting a new round only while it is
/// expected to finish in time, and at least kMinReps times.
template <typename Body>
void repeat_for(double seconds, Body&& body) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (std::size_t n = 0;
       n < kMinReps || seconds_since(start) + last <= seconds; ++n) {
    const Clock::time_point t0 = Clock::now();
    body(n);
    last = seconds_since(t0);
  }
}

/// One traced iteration's per-layer metrics (one sample each), in the
/// order BENCHMARK.json lists them.
std::vector<Metric> layer_metrics(const Tracer& tracer, double reference_s,
                                  double replay_s, double busy_ratio,
                                  const SchedStats& sched) {
  const std::array<double, kLayers> by_layer = tracer.seconds_by_layer();
  const auto sec = [&](Layer l) {
    return by_layer[static_cast<std::size_t>(l)];
  };
  double layers_s = 0.0;
  for (std::size_t l = 1; l < kLayers; ++l) layers_s += by_layer[l];
  const Work& w = tracer.work;
  const auto per = [](double x, std::uint64_t n) {
    return n > 0 ? x / static_cast<double>(n) : 0.0;
  };
  const auto us_per_frame = [&](Layer l) {
    return per(1e6 * sec(l), w.frames);
  };
  const auto us_per_read = [&](Layer l) {
    return per(1e6 * sec(l), w.reads);
  };
  const auto share = [&](Layer l) { return sec(l) / reference_s; };
  const auto count_per_frame = [&](std::uint64_t c) {
    return per(static_cast<double>(c), w.frames);
  };
  const auto count_per_read = [&](std::uint64_t c) {
    return per(static_cast<double>(c), w.reads);
  };
  return {
      {"scene.track.us_per_read", "us", {us_per_read(Layer::track)}},
      {"scene.track.share", "fraction", {share(Layer::track)}},
      {"scene.returns.us_per_frame", "us", {us_per_frame(Layer::returns)}},
      {"scene.returns.share", "fraction", {share(Layer::returns)}},
      {"scene.returns.returns_per_frame", "count",
       {count_per_frame(w.returns)}},
      {"radar.synthesize.us_per_frame", "us",
       {us_per_frame(Layer::synthesize)}},
      {"radar.synthesize.share", "fraction", {share(Layer::synthesize)}},
      {"radar.synthesize.noise_samples_per_frame", "count",
       {count_per_frame(w.noise_samples)}},
      {"radar.synthesize.tone_samples_per_frame", "count",
       {count_per_frame(w.tone_samples)}},
      {"radar.range_fft.us_per_frame", "us",
       {us_per_frame(Layer::range_fft)}},
      {"radar.range_fft.share", "fraction", {share(Layer::range_fft)}},
      {"radar.range_fft.fft_points_per_frame", "count",
       {count_per_frame(w.fft_points)}},
      {"radar.detect.share", "fraction", {share(Layer::detect)}},
      {"radar.detect.cfar_cells_per_frame", "count",
       {count_per_frame(w.cfar_cells)}},
      {"radar.detect.detections_per_frame", "count",
       {count_per_frame(w.detections)}},
      {"pipeline.merge.share", "fraction", {share(Layer::merge)}},
      {"pipeline.merge.points_per_read", "count",
       {count_per_read(w.cloud_points)}},
      {"pipeline.cluster.share", "fraction", {share(Layer::cluster)}},
      {"pipeline.cluster.dense_clusters_per_read", "count",
       {count_per_read(w.dense_clusters)}},
      {"pipeline.sample.us_per_frame", "us", {us_per_frame(Layer::sample)}},
      {"pipeline.sample.share", "fraction", {share(Layer::sample)}},
      {"pipeline.sample.samples_per_read", "count",
       {count_per_read(w.samples)}},
      {"pipeline.classify.share", "fraction", {share(Layer::classify)}},
      {"pipeline.classify.candidates_per_read", "count",
       {count_per_read(w.candidates)}},
      {"pipeline.classify.false_tag_rate", "fraction",
       {per(static_cast<double>(w.false_tags), w.clutter_clusters)}},
      {"tag.decode.us_per_read", "us", {us_per_read(Layer::decode)}},
      {"tag.decode.share", "fraction", {share(Layer::decode)}},
      {"tag.decode.series_len", "count",
       {per(static_cast<double>(w.series_len), w.decodes)}},
      {"pipeline.driver_share", "fraction", {1.0 - layers_s / reference_s}},
      {"trace.coverage", "fraction", {layers_s / reference_s}},
      {"trace.overhead_pct", "%", {100.0 * (replay_s - layers_s) / replay_s}},
      {"exec.busy_ratio", "fraction", {busy_ratio}},
      {"corridor.sessions_active_mean", "count", {sched.active_mean}},
      {"corridor.sessions_peak", "count", {sched.peak}},
      {"corridor.sessions_created", "count", {sched.created}},
  };
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& d : kWorkloads) v.emplace_back(d.name);
    return v;
  }();
  return names;
}

std::size_t workload_threads(const std::string& workload) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(def_of(workload).threads, 1,
                                 std::max<std::size_t>(hw, 1));
}

RunResult run_timed(const RunOptions& opts) {
  Setup setup = set_up(opts);
  Workload& w = *setup.workload;
  RunResult out;
  std::vector<Rep> reps;
  repeat_for(opts.seconds, [&](std::size_t) { reps.push_back(w.rep(out)); });
  w.post_checks(out);

  std::vector<double> reads_per_s;
  std::vector<double> frames_per_s;
  std::vector<double> p50;
  std::vector<double> p95;
  std::vector<double> success;
  std::vector<double> bit_accuracy;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const auto reads = static_cast<double>(r.read_ms.size());
    out.attempted += r.read_ms.size();
    out.check(r.digest == reps.front().digest,
              "rep " + std::to_string(i + 1) +
                  " result digest differs from rep 1",
              r.read_ms.size());
    reads_per_s.push_back(reads / r.wall_s);
    frames_per_s.push_back(static_cast<double>(r.frames) / r.wall_s);
    p50.push_back(ros::obs::median(r.read_ms));
    p95.push_back(percentile(r.read_ms, 0.95));
    success.push_back(static_cast<double>(r.reads_ok) / reads);
    bit_accuracy.push_back(static_cast<double>(r.bits_ok) /
                           static_cast<double>(r.bits));
  }
  out.add("reads_per_s", "reads/s", std::move(reads_per_s));
  out.add("frames_per_s", "frames/s", std::move(frames_per_s));
  out.add("read_ms_p50", "ms", std::move(p50));
  out.add("read_ms_p95", "ms", std::move(p95));
  out.add("read_success_rate", "fraction", std::move(success));
  out.add("bit_accuracy", "fraction", std::move(bit_accuracy));
  out.add("setup_s", "s", std::move(setup.total_s));
  out.add("peak_rss_mb", "MB", {peak_rss_mb()});
  return out;
}

RunResult run_traced(const RunOptions& opts) {
  Setup setup = set_up(opts);
  Workload& w = *setup.workload;
  RunResult out;

  // CPU use and scheduler occupancy at the workload's own thread count.
  const auto threads =
      static_cast<double>(ThreadPool::global().threads());
  const double cpu0 = cpu_seconds();
  const Clock::time_point t_busy = Clock::now();
  const SchedStats sched = w.reference();
  const double busy =
      (cpu_seconds() - cpu0) / (seconds_since(t_busy) * threads);

  // Reference and replay both at one thread, so the summed layer self
  // time is comparable to the reference wall time.
  ThreadPool::set_global_threads(1);
  std::vector<Metric> metrics;
  std::optional<Work> first_work;
  Tracer last;
  repeat_for(opts.seconds, [&](std::size_t n) {
    Tracer tracer;
    const TraceRound round = w.trace_round(tracer, n % 2 == 0);
    const std::string iteration = "iteration " + std::to_string(n + 1);
    out.attempted += tracer.work.reads;
    out.check(round.mismatches == 0,
              iteration + ": " + std::to_string(round.mismatches) +
                  " replayed reads differ from the reference",
              round.mismatches);
    if (!first_work) first_work = tracer.work;
    out.check(tracer.work == *first_work,
              iteration + ": work counts differ from iteration 1");

    std::vector<Metric> m = layer_metrics(tracer, round.reference_s,
                                          round.replay_s, busy, sched);
    if (metrics.empty()) {
      metrics = std::move(m);
    } else {
      for (std::size_t i = 0; i < m.size(); ++i) {
        metrics[i].samples.push_back(m[i].samples.front());
      }
    }
    last = std::move(tracer);
  });

  const auto coverage =
      std::find_if(metrics.begin(), metrics.end(),
                   [](const Metric& m) { return m.name == "trace.coverage"; });
  const double cov = spread_of(coverage->samples).median;
  out.check(cov >= 0.9 && cov <= 1.1,
            "trace coverage " + std::to_string(cov) +
                " is outside [0.9, 1.1]: the layers do not explain the read");
  if (!opts.trace_out.empty()) {
    out.check(last.write_chrome_trace(opts.trace_out, opts.workload),
              "cannot write the Chrome trace to " + opts.trace_out);
  }
  out.metrics = std::move(metrics);
  out.add("setup.inputs_s", "s", std::move(setup.inputs_s));
  out.add("setup.warmup_s", "s", std::move(setup.warmup_s));
  return out;
}

}  // namespace e2e
