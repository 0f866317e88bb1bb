#include "ros/obs/timer.hpp"

#include <chrono>

#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/trace.hpp"

namespace ros::obs {

double monotonic_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

ScopedTimer::ScopedTimer(std::string name, std::string category,
                         Histogram* histogram_ms)
    : name_(std::move(name)),
      category_(std::move(category)),
      histogram_ms_(histogram_ms),
      start_us_(TraceExporter::global().now_us()) {}

ScopedTimer::~ScopedTimer() { stop(); }

double ScopedTimer::stop() {
  if (stopped_) return elapsed_ms_;
  stopped_ = true;
  const std::int64_t end_us = TraceExporter::global().now_us();
  const std::int64_t dur_us = end_us - start_us_;
  elapsed_ms_ = static_cast<double>(dur_us) / 1000.0;
  TraceExporter::global().record_complete(name_, category_, start_us_,
                                          dur_us);
  FlightRecorder::global().record_span(name_, start_us_, dur_us);
  if (histogram_ms_ != nullptr) histogram_ms_->observe(elapsed_ms_);
  return elapsed_ms_;
}

double ScopedTimer::elapsed_ms() const {
  if (stopped_) return elapsed_ms_;
  return static_cast<double>(TraceExporter::global().now_us() -
                             start_us_) /
         1000.0;
}

ScopedTimer make_registry_timer(std::string name, std::string category) {
  Histogram& h = MetricsRegistry::global().histogram(name + ".ms");
  return ScopedTimer(std::move(name), std::move(category), &h);
}

}  // namespace ros::obs
