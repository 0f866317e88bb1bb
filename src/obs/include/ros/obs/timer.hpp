// RAII span timing: a ScopedTimer measures the enclosing scope on the
// steady clock and, on destruction (or an early stop()), reports the
// span to the global TraceExporter and optionally to a latency
// Histogram. Nested timers nest naturally in the trace view because
// each span carries its own (start, duration) on the thread's track.
//
//   {
//     ros::obs::ScopedTimer t("pipeline.cluster", "pipeline",
//                             &registry.histogram("pipeline.cluster.ms"));
//     ...
//   }  // span recorded here
#pragma once

#include <cstdint>

#include "ros/obs/metrics.hpp"

namespace ros::obs {

/// Seconds on the steady clock since process start (same epoch for all
/// callers, the trace and flight-recorder timestamps included;
/// monotonic, never wall-clock). For differences only.
double monotonic_s();

/// The one span type. `name` and `category` must have static storage
/// duration (string literals or constant tables): the span keeps the
/// pointers and never copies them, so timing a scope never allocates.
/// Only an enabled TraceExporter copies the strings, when it records.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, const char* category = "pipeline",
                       Histogram* histogram_ms = nullptr);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// End the span early; idempotent. Returns the elapsed milliseconds.
  double stop();

 private:
  const char* name_;
  const char* category_;
  Histogram* histogram_ms_;
  std::int64_t start_us_;
  double elapsed_ms_ = 0.0;
  bool stopped_ = false;
};

}  // namespace ros::obs
