#include "ros/obs/timer.hpp"

#include <chrono>

#include "ros/obs/trace.hpp"

namespace ros::obs {

double monotonic_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

ScopedTimer::ScopedTimer(const char* name, const char* category,
                         Histogram* histogram_ms)
    : name_(name),
      category_(category),
      histogram_ms_(histogram_ms),
      start_us_(TraceExporter::now_us()) {}

ScopedTimer::~ScopedTimer() { stop(); }

double ScopedTimer::stop() {
  if (stopped_) return elapsed_ms_;
  stopped_ = true;
  const std::int64_t dur_us = TraceExporter::now_us() - start_us_;
  elapsed_ms_ = static_cast<double>(dur_us) / 1000.0;
  TraceExporter::global().record_complete(name_, category_, start_us_,
                                          dur_us);
  if (histogram_ms_ != nullptr) histogram_ms_->observe(elapsed_ms_);
  return elapsed_ms_;
}

}  // namespace ros::obs
