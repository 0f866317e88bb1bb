// Flight recorder: always-on, bounded-memory trace of recent activity.
//
// Unlike the Chrome TraceExporter (opt-in, unbounded, written to a file
// for offline viewing), the flight recorder answers the post-mortem
// question "what was each thread doing in the last N events before the
// crash". It is designed to stay enabled in production:
//
//   * Each thread owns a ring of kRingCapacity 24-byte FlightEvent
//     records. Writes are single-writer plain stores plus one release
//     store of the head index: no locks, no allocation after the ring
//     is created on the thread's first event.
//   * The ring holds no spans: those are the TraceExporter's (one span
//     type, ScopedTimer). Frames are sampled: the frame loop asks
//     should_sample() once per frame (1 in `sample_period()`, default
//     8) and brackets each sampled frame with frame_begin / rng_seed /
//     frame_end. Other discrete events (queue depths, arena high-water
//     marks) are recorded unsampled.
//   * Names are interned into a bounded table (kMaxNames); the table
//     overflowing maps further names onto id 0 ("!overflow") rather
//     than growing.
//   * dump_json_fd() serializes the rings with snprintf into a stack
//     buffer and write(2) only — usable (best-effort) from a signal
//     handler; to_json() is the comfortable in-process variant.
//
// set_enabled(false) disables recording entirely (record() becomes a
// single relaxed load + branch).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ros::obs {

enum class FlightKind : std::uint8_t {
  mark = 0,         ///< free-form point event
  frame_begin = 2,  ///< value = frame id
  frame_end = 3,    ///< value = frame id
  rng_seed = 4,     ///< value = derived RNG stream seed
  queue_depth = 5,  ///< value = queue length at t_us
  arena_hwm = 6,    ///< value = arena high-water bytes
};

const char* to_string(FlightKind kind);

struct FlightEvent {
  std::int64_t t_us = 0;     ///< TraceExporter::now_us()
  std::uint64_t value = 0;   ///< kind-specific payload
  std::uint32_t name_id = 0; ///< interned name (0 = "!overflow")
  std::uint16_t tid = 0;     ///< TraceExporter::this_thread_id()
  FlightKind kind = FlightKind::mark;
  std::uint8_t reserved = 0;
};
static_assert(sizeof(FlightEvent) == 24, "keep flight events compact");

class FlightRecorder {
 public:
  static constexpr std::uint32_t kMaxNames = 1024;

  /// Events per thread ring.
  static constexpr std::size_t kRingCapacity = 4096;

  /// Process-wide recorder.
  static FlightRecorder& global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::uint32_t sample_period() const {
    return sample_period_.load(std::memory_order_relaxed);
  }
  /// 1 samples every frame; n samples 1 in n (per thread).
  void set_sample_period(std::uint32_t period);

  std::size_t ring_capacity() const { return kRingCapacity; }
  /// Fixed bytes per participating thread (ring storage only).
  std::size_t bytes_per_thread() const {
    return kRingCapacity * sizeof(FlightEvent);
  }

  /// Intern `name`; stable id for the process lifetime. Returns 0 once
  /// kMaxNames distinct names exist. No allocation when `name` was
  /// interned before.
  std::uint32_t intern(std::string_view name);

  /// Calling thread's sampling gate: decrements a thread-local
  /// countdown and fires once every sample_period() calls. Callers
  /// bracket a frame's worth of events with one should_sample() so the
  /// frame's begin/seed/end records stay together.
  bool should_sample();

  /// Record one event on the calling thread's ring. No-op while
  /// disabled. Never allocates after the thread's first record.
  void record(FlightKind kind, std::uint32_t name_id,
              std::uint64_t value);

  /// Merged copy of every thread's ring, ordered by t_us. Events being
  /// written concurrently may read torn — acceptable for diagnostics.
  std::vector<FlightEvent> snapshot() const;

  /// {"schema":"ros-flight-v1", "names":[...], "events":[...]}.
  std::string to_json() const;

  /// Async-signal best-effort serialization of the same document to an
  /// already-open fd. Returns 0 on success, -1 on write failure.
  int dump_json_fd(int fd) const noexcept;

  std::size_t thread_count() const;
  /// Events overwritten by ring wrap-around, across all threads.
  std::uint64_t dropped() const;
  /// Total events ever recorded, across all threads.
  std::uint64_t total_recorded() const;

  /// Test hook: forget the calling thread's sampling countdown so
  /// sampling tests start from a known phase.
  static void reset_thread_sampling();

 private:
  struct Ring {
    explicit Ring(std::size_t capacity, std::uint16_t tid_)
        : buf(capacity), tid(tid_) {}
    std::vector<FlightEvent> buf;
    std::atomic<std::uint64_t> head{0};  ///< total writes (monotonic)
    std::uint16_t tid = 0;
  };

  FlightRecorder();
  Ring& thread_ring();

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint32_t> sample_period_{8};

  mutable std::mutex names_mu_;
  std::vector<std::string> names_;  ///< index = id; [0] = "!overflow"

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< live for process life
};

}  // namespace ros::obs
