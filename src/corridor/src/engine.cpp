#include "ros/corridor/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ros/common/expect.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/alloc.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/timer.hpp"
#include "ros/pipeline/stages.hpp"

namespace ros::corridor {

namespace {

constexpr const char* kLog = "corridor";

double now_ms() { return ros::obs::monotonic_s() * 1000.0; }

/// Latency buckets for corridor reads: sub-ms to tens of seconds.
const std::vector<double>& read_latency_edges() {
  static const std::vector<double> edges = {
      1.0,   2.5,   5.0,    10.0,   25.0,   50.0,    100.0,
      250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0};
  return edges;
}

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

template <typename T>
void fnv_pod(std::uint64_t& h, const T& v) {
  fnv_bytes(h, &v, sizeof(v));
}

}  // namespace

bool same_read(const ros::pipeline::DecodeDriveResult& a,
               const ros::pipeline::DecodeDriveResult& b) {
  if (a.decode.bits != b.decode.bits ||
      a.decode.slot_amplitudes != b.decode.slot_amplitudes ||
      a.mean_rss_dbm != b.mean_rss_dbm ||
      a.telemetry.n_points != b.telemetry.n_points) {
    return false;
  }
  if (!a.samples.empty() && !b.samples.empty() &&
      a.samples.size() != b.samples.size()) {
    return false;
  }
  return true;
}

std::uint64_t result_digest(const CorridorResult& result) {
  std::uint64_t h = 14695981039346656037ULL;
  fnv_pod(h, result.reads.size());
  for (const ReadRecord& r : result.reads) {
    fnv_pod(h, r.vehicle_id);
    fnv_pod(h, r.tag_index);
    fnv_pod(h, r.noise_seed);
    fnv_pod(h, r.completed);
    fnv_pod(h, r.result.mean_rss_dbm);
    fnv_pod(h, r.result.telemetry.n_points);
    fnv_pod(h, r.result.decode.bits.size());
    for (const bool bit : r.result.decode.bits) fnv_pod(h, bit);
    fnv_pod(h, r.result.decode.slot_amplitudes.size());
    for (const double a : r.result.decode.slot_amplitudes) fnv_pod(h, a);
  }
  return h;
}

CorridorEngine::CorridorEngine(CorridorSpec spec)
    : spec_(std::move(spec)) {
  ros::pipeline::validate(spec_.config);
  ros::pipeline::obs_session_begin();
  fleet_ = fleet_of(spec_);
  plans_ = plan_sessions(spec_);
  tag_scenes_.reserve(spec_.tags.size());
  for (const TagSpec& tag : spec_.tags) {
    tag_scenes_.push_back(tag_scene_of(tag, spec_.weather));
  }
  rate_hz_ = spec_.config.chirp.frame_rate_hz /
             static_cast<double>(spec_.config.frame_stride);
  // Pre-assign every record slot in plan order: a session finalizing on
  // a pool thread writes only its own slot, and the record sequence is
  // scheduling-independent by construction.
  result_.reads.resize(plans_.size());
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    ReadRecord& r = result_.reads[p];
    r.vehicle_id = plans_[p].vehicle_id;
    r.tag_index = plans_[p].tag_index;
    r.start_s = plans_[p].start_s;
    r.duration_s = plans_[p].duration_s;
    r.noise_seed = plans_[p].noise_seed;
  }
  ROS_LOG_INFO(kLog, "corridor planned",
               ros::obs::kv("vehicles", fleet_.size()),
               ros::obs::kv("tags", spec_.tags.size()),
               ros::obs::kv("sessions", plans_.size()),
               ros::obs::kv("tick_s", spec_.tick_s));
}

double CorridorEngine::sim_time_s() const {
  return static_cast<double>(tick_index_) * spec_.tick_s;
}

void CorridorEngine::activate(std::size_t plan_index, double t_ms) {
  ReadSession* s = nullptr;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
    ++result_.stats.sessions_recycled;
  } else {
    sessions_.push_back(std::make_unique<ReadSession>());
    s = sessions_.back().get();
    ++result_.stats.sessions_created;
  }
  const SessionPlan& plan = plans_[plan_index];
  s->bind(spec_, plan, tag_scenes_[plan.tag_index], t_ms);
  active_.push_back({s, plan_index, 0, false});
  ++result_.stats.sessions_spawned;
}

std::size_t CorridorEngine::frames_due(const Active& a,
                                       double sim_t) const {
  const SessionPlan& plan = plans_[a.plan_index];
  const double elapsed = sim_t - plan.start_s;
  if (elapsed < 0.0) return 0;
  // Clamp before converting: a long tick can put elapsed * rate past
  // any integer (n_frames < 2^53 converts exactly).
  const std::size_t n = a.session->engine().n_frames();
  return static_cast<std::size_t>(std::min(
      std::floor(elapsed * rate_hz_) + 1.0, static_cast<double>(n)));
}

void CorridorEngine::finalize(Active& a, double t_ms) {
  ReadRecord& record = result_.reads[a.plan_index];
  record.result = a.session->engine().finalize_decode();
  record.completed = true;
  record.latency_ms = t_ms - a.session->begin_ms();
  a.finished = true;
}

bool CorridorEngine::tick() {
  if (done()) return false;
  auto& reg = ros::obs::MetricsRegistry::global();
  ++tick_index_;
  // Fast-forward across empty stretches (sparse traffic): simulated
  // time is discrete in ticks, so jumping the index is exact.
  // plan_sessions() bounds start / tick below 2^53; the clamp keeps the
  // conversion defined for a start before zero too.
  if (active_.empty() && next_plan_ < plans_.size()) {
    const double skip_to = std::clamp(
        std::floor(plans_[next_plan_].start_s / spec_.tick_s), 0.0, 0x1p53);
    tick_index_ = std::max(tick_index_, static_cast<std::uint64_t>(skip_to));
  }
  const double sim_t = sim_time_s();
  const double t_ms = now_ms();

  // 1. Activate arrivals (plan order == deterministic order).
  while (next_plan_ < plans_.size() &&
         plans_[next_plan_].start_s <= sim_t) {
    activate(next_plan_, t_ms);
    ++next_plan_;
  }

  // 2. One pass per session: push its due frames in frame order on
  // whichever thread claims it, then finalize in place if it consumed
  // its last frame. Sessions are mutually independent, so per-session
  // frame order is the only ordering the determinism contract needs.
  ros::exec::parallel_for(0, active_.size(), [&](std::size_t i) {
    Active& a = active_[i];
    auto& engine = a.session->engine();
    const std::size_t first = engine.frames_consumed();
    const std::size_t due = frames_due(a, sim_t);
    for (std::size_t f = first; f < due; ++f) engine.push_frame(f);
    a.tick_frames = due - first;
    if (due >= engine.n_frames()) finalize(a, now_ms());
  });

  // 3. Serial sweep: recycle, count, report.
  std::size_t frames_now = 0;
  std::size_t completed_now = 0;
  for (std::size_t i = 0; i < active_.size();) {
    frames_now += active_[i].tick_frames;
    if (active_[i].finished) {
      const ReadRecord& record = result_.reads[active_[i].plan_index];
      ++completed_now;
      ++result_.stats.reads_completed;
      if (record.result.decode.bits.empty()) {
        ++result_.stats.reads_no_read;
      } else {
        ++result_.stats.reads_decoded;
      }
      reg.histogram("corridor.read.ms", read_latency_edges())
          .observe(record.latency_ms);
      free_.push_back(active_[i].session);
      active_[i] = active_.back();
      active_.pop_back();
    } else {
      ++i;
    }
  }

  ++result_.stats.ticks;
  result_.stats.frames_processed += frames_now;
  result_.stats.sim_time_s = sim_t;
  result_.stats.peak_active_sessions =
      std::max(result_.stats.peak_active_sessions,
               active_.size() + completed_now);
  vehicle_scratch_.clear();
  for (const Active& a : active_) {
    vehicle_scratch_.push_back(plans_[a.plan_index].vehicle_id);
  }
  std::sort(vehicle_scratch_.begin(), vehicle_scratch_.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(vehicle_scratch_.begin(), vehicle_scratch_.end()) -
      vehicle_scratch_.begin());
  result_.stats.peak_active_vehicles =
      std::max(result_.stats.peak_active_vehicles, distinct);

  reg.counter("corridor.ticks").inc();
  reg.counter("corridor.frames.processed").inc(frames_now);
  if (completed_now > 0) {
    reg.counter("corridor.reads.completed").inc(completed_now);
  }
  reg.gauge("corridor.sessions.active")
      .set(static_cast<double>(active_.size()));
  reg.gauge("corridor.sessions.free")
      .set(static_cast<double>(free_.size()));
  reg.gauge("corridor.sessions.peak")
      .set(static_cast<double>(result_.stats.peak_active_sessions));
  reg.gauge("corridor.vehicles.active").set(static_cast<double>(distinct));
  reg.gauge("corridor.sim_time_s").set(sim_t);
  return !done();
}

void CorridorEngine::run() {
  const double t0 = now_ms();
  const auto allocs_before = ros::obs::alloc_counters();
  while (tick()) {
  }
  result_.stats.wall_ms = now_ms() - t0;
  ros::pipeline::record_frame_loop_allocs(
      "corridor.frame_loop.allocs_per_frame", allocs_before,
      result_.stats.frames_processed);
  ros::pipeline::record_runtime_introspection();
  ROS_LOG_INFO(kLog, "corridor drained",
               ros::obs::kv("reads", result_.stats.reads_completed),
               ros::obs::kv("frames", result_.stats.frames_processed),
               ros::obs::kv("peak_sessions",
                            result_.stats.peak_active_sessions),
               ros::obs::kv("wall_ms", result_.stats.wall_ms));
}

CorridorResult run_corridor(const CorridorSpec& spec) {
  CorridorEngine engine(spec);
  engine.run();
  return engine.result();
}

}  // namespace ros::corridor
