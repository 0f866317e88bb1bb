// RAII stage timing: a ScopedTimer measures the enclosing scope on the
// steady clock and, on destruction (or an early stop()), reports the
// span to the global TraceExporter and optionally to a latency
// Histogram. Nested timers nest naturally in the trace view because
// each span carries its own (start, duration) on the thread's track.
//
//   {
//     ros::obs::ScopedTimer t("interrogate.cluster", "pipeline",
//                             &registry.histogram("interrogate.cluster.ms"));
//     ...
//   }  // span recorded here
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ros/obs/metrics.hpp"

namespace ros::obs {

/// Seconds on the steady clock since process start (same epoch for all
/// callers; monotonic, never wall-clock). For differences only.
double monotonic_s();

class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name,
                       std::string category = "pipeline",
                       Histogram* histogram_ms = nullptr);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// End the span early; idempotent. Returns the elapsed milliseconds.
  double stop();
  /// Elapsed so far (or the final duration once stopped).
  double elapsed_ms() const;

 private:
  std::string name_;
  std::string category_;
  Histogram* histogram_ms_;
  std::int64_t start_us_;
  double elapsed_ms_ = 0.0;
  bool stopped_ = false;
};

/// Convenience: time into the global registry's histogram `<name>.ms`.
ScopedTimer make_registry_timer(std::string name,
                                std::string category = "pipeline");

}  // namespace ros::obs
