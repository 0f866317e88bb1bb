// Chrome trace_event exporter: records complete ("ph":"X") spans and
// writes a JSON file loadable in chrome://tracing or ui.perfetto.dev.
//
// The global exporter is disabled (and effectively free) unless a trace
// path is set, either programmatically via enable() or with the
// ROS_TRACE_FILE environment variable; with the env var set the file is
// flushed automatically at process exit. Timestamps are microseconds on
// monotonic_s()'s process epoch (shared with the flight recorder, never
// reset by enable()), and each OS thread gets a small dense track id so
// nested spans from different threads land on separate tracks.
//
// The file is written incrementally: enable() opens it and writes the
// document prefix, batches of events are appended as they accumulate
// (and on every flush()), and each batch ends with the closing
// "\n]}\n" suffix which the next batch seeks back over. The file on
// disk is therefore valid JSON after every write — a crash or abort
// mid-run loses at most the last unflushed batch, never the document
// structure. crash_finalize() pushes any pending events out from a
// terminating context (best effort: it backs off if the lock is held).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ros::obs {

struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;   ///< span start, TraceExporter::now_us()
  std::int64_t dur_us = 0;  ///< span duration
  std::uint32_t tid = 0;    ///< per-thread track id
};

class TraceExporter {
 public:
  TraceExporter();
  ~TraceExporter();  ///< flushes and closes if enabled with a path
  TraceExporter(const TraceExporter&) = delete;
  TraceExporter& operator=(const TraceExporter&) = delete;

  /// Process-wide exporter; first access honors ROS_TRACE_FILE and
  /// registers an atexit finalizer for the file.
  static TraceExporter& global();

  /// Start (or retarget) a session writing to `path`. Opens the file
  /// and writes the document prefix immediately.
  void enable(std::string path);
  /// Stop recording: flush pending events, close the file, drop the
  /// buffer.
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Microseconds on monotonic_s()'s process epoch: one clock for every
  /// span and flight event, whether or not a session is enabled.
  static std::int64_t now_us();

  /// Record one complete span. No-op while disabled. Spills a batch to
  /// the file once enough events accumulate.
  void record_complete(std::string_view name, std::string_view category,
                       std::int64_t ts_us, std::int64_t dur_us);

  std::size_t event_count() const;
  /// Append pending events to the enabled path (the file stays valid
  /// JSON). Returns false when disabled, pathless, or the file cannot
  /// be written.
  bool flush() const;

  /// Best-effort flush from a crash/atexit context: skips (leaving the
  /// last-written valid file) if the exporter lock is contended.
  void crash_finalize() const noexcept;

  /// Dense id of the calling thread (stable for the thread's lifetime).
  static std::uint32_t this_thread_id();

 private:
  bool open_file_locked();
  bool flush_pending_locked() const;
  void close_file_locked();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::string path_;
  std::vector<TraceEvent> events_;
  mutable std::FILE* file_ = nullptr;
  mutable std::size_t file_flushed_ = 0;  ///< events already on disk
  mutable bool file_has_events_ = false;
};

}  // namespace ros::obs
