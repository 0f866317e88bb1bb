// Sharded corridor scheduler (ros::corridor).
//
// CorridorEngine advances simulated time in fixed ticks. Each tick:
//
//   1. activate — session plans whose start time has arrived take a
//      ReadSession from the free list (or construct one, cold path) and
//      bind it; plans are pre-sorted by (start, vehicle, tag), so
//      activation order never depends on input enumeration order.
//   2. session pass (parallel) — `parallel_for` over active sessions;
//      each pushes its due frames through its streaming engine in frame
//      order (synthesize into the thread's packet, then consume), so a
//      frame's profile never leaves the core that made it. Sessions are
//      mutually independent and frame i depends only on (config, scene,
//      pose_i, i) through its counter-derived RNG stream, so
//      per-session frame order is the only ordering the bit-determinism
//      contract needs. A session that consumed its last frame finalizes
//      in place, writing its pre-assigned record slot.
//   3. sweep (serial) — finished sessions return to the free list;
//      throughput rates, latency histograms, and occupancy gauges tick.
//
// Determinism: every readout is bit-identical to the same session run
// standalone through decode_drive, at any ROS_THREADS setting and any
// vehicle enumeration order. Only host-side measurements (latency_ms,
// wall_ms, obs instruments) vary between runs; result_digest() covers
// exactly the deterministic part.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ros/corridor/session.hpp"
#include "ros/corridor/world.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/scene/scene.hpp"

namespace ros::corridor {

struct CorridorStats {
  std::size_t ticks = 0;
  std::size_t frames_processed = 0;
  std::size_t reads_completed = 0;  ///< sessions finalized
  std::size_t reads_decoded = 0;    ///< non-empty payload
  std::size_t reads_no_read = 0;
  std::size_t sessions_spawned = 0;
  std::size_t sessions_recycled = 0;  ///< binds served by the free list
  std::size_t sessions_created = 0;   ///< heap constructions (cold)
  std::size_t peak_active_sessions = 0;
  std::size_t peak_active_vehicles = 0;
  double sim_time_s = 0.0;
  double wall_ms = 0.0;  ///< host-dependent; excluded from digests
};

/// One (vehicle, tag) readout. Slots are pre-assigned in plan order, so
/// the record sequence is identical across thread counts and vehicle
/// permutations.
struct ReadRecord {
  std::uint64_t vehicle_id = 0;
  std::size_t tag_index = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::uint64_t noise_seed = 0;
  bool completed = false;
  double latency_ms = 0.0;  ///< wall clock, activation -> finalize
  ros::pipeline::DecodeDriveResult result;
};

struct CorridorResult {
  std::vector<ReadRecord> reads;  ///< one per plan, plan order
  CorridorStats stats;
};

class CorridorEngine {
 public:
  explicit CorridorEngine(CorridorSpec spec);
  CorridorEngine(const CorridorEngine&) = delete;
  CorridorEngine& operator=(const CorridorEngine&) = delete;

  /// Advance one time slice. Returns false once every plan has been
  /// activated, consumed, and finalized.
  bool tick();

  /// Ticks to completion and books run-level telemetry (frame-loop
  /// alloc gauge, runtime introspection, wall time).
  void run();

  bool done() const {
    return next_plan_ >= plans_.size() && active_.empty();
  }

  const CorridorSpec& spec() const { return spec_; }
  const std::vector<Vehicle>& fleet() const { return fleet_; }
  const std::vector<SessionPlan>& plans() const { return plans_; }
  const CorridorResult& result() const { return result_; }
  const CorridorStats& stats() const { return result_.stats; }
  double sim_time_s() const;
  std::size_t active_sessions() const { return active_.size(); }
  std::size_t free_sessions() const { return free_.size(); }

 private:
  struct Active {
    ReadSession* session = nullptr;
    std::size_t plan_index = 0;
    std::size_t tick_frames = 0;  ///< frames pushed this tick
    bool finished = false;
  };

  void activate(std::size_t plan_index, double now_ms);
  std::size_t frames_due(const Active& a, double sim_t) const;
  void finalize(Active& a, double now_ms);

  CorridorSpec spec_;
  std::vector<Vehicle> fleet_;
  std::vector<SessionPlan> plans_;
  std::vector<ros::scene::Scene> tag_scenes_;  ///< one per installation
  double rate_hz_ = 0.0;

  CorridorResult result_;
  std::size_t next_plan_ = 0;
  std::uint64_t tick_index_ = 0;

  std::vector<std::unique_ptr<ReadSession>> sessions_;  ///< all created
  std::vector<ReadSession*> free_;
  std::vector<Active> active_;
  std::vector<std::uint64_t> vehicle_scratch_;  ///< distinct-id count
};

/// Convenience one-shot driver.
CorridorResult run_corridor(const CorridorSpec& spec);

/// Bitwise read equality on the deterministic fields: payload bits,
/// slot amplitudes, mean RSS, and sample count (raw samples too when
/// both sides retained them). Host-side latency is excluded.
bool same_read(const ros::pipeline::DecodeDriveResult& a,
               const ros::pipeline::DecodeDriveResult& b);

/// FNV-1a digest over every record's deterministic fields, in record
/// order — equal digests mean bit-identical corridor output.
std::uint64_t result_digest(const CorridorResult& result);

}  // namespace ros::corridor
