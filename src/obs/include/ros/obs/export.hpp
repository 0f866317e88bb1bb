// Periodic metrics snapshot exporter.
//
// A background thread wakes every `interval_s` and:
//   * appends one JSON line (a full MetricsSnapshot document plus a
//     timestamp) to `jsonl_path` when set — tail -f friendly, and each
//     line parses standalone through json_parse.hpp;
//   * rewrites `prom_path` atomically (tmp file + rename) with the
//     Prometheus text exposition of the same snapshot, for a node
//     exporter textfile collector to pick up.
//
// tick_at(now_s) runs one cycle synchronously — tests drive it with a
// fake clock and never need the thread. global() reads
// ROS_OBS_EXPORT_FILE and ROS_OBS_PROM_FILE on first use and
// auto-starts the thread (1 s interval) when either path is set;
// processes that never set those run zero extra threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "ros/obs/timer.hpp"

namespace ros::obs {

class SnapshotExporter {
 public:
  struct Options {
    std::string jsonl_path;  ///< empty = no JSONL export
    std::string prom_path;   ///< empty = no Prometheus export
    double interval_s = 1.0;
  };

  explicit SnapshotExporter(Options options);
  ~SnapshotExporter();
  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  /// Process-wide exporter; first access reads ROS_OBS_EXPORT_FILE and
  /// ROS_OBS_PROM_FILE and starts the background thread when either
  /// file is configured.
  static SnapshotExporter& global();

  /// Idempotent: construct the global exporter (and hence its thread,
  /// when configured). Call sites: bench ObsSession, pipeline entry.
  static void ensure_started_from_env();

  const Options& options() const { return options_; }

  /// Start the background thread (idempotent).
  void start();
  /// Stop and join the background thread (idempotent, safe if never
  /// started).
  void stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// One export cycle at monotonic time `now_s`: snapshot the global
  /// registry, append JSONL / rewrite Prometheus file. Returns false if
  /// any configured file write failed.
  bool tick_at(double now_s);
  bool tick() { return tick_at(monotonic_s()); }

  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main();

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
};

}  // namespace ros::obs
