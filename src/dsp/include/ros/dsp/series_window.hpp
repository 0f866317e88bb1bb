// Decoder-series state (ros::dsp).
//
// The streaming pipeline accumulates the spatial decoder's input — the
// (u, linear RSS) sample series inside the decode FoV — one frame at a
// time. This container owns that state: append-only, exposing the
// contiguous vectors the spectrum decoder consumes (no copy at decode
// time).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ros::dsp {

class SeriesWindow {
 public:
  void push(double u, double rss_linear) {
    u_.push_back(u);
    rss_.push_back(rss_linear);
  }

  /// Pre-size the backing storage (a streaming engine that knows its
  /// frame count reserves up front so the steady-state loop is
  /// allocation-free).
  void reserve(std::size_t n) {
    u_.reserve(n);
    rss_.reserve(n);
  }

  std::size_t size() const { return u_.size(); }
  bool empty() const { return u_.empty(); }

  /// Contiguous decoder inputs, oldest sample first. Views into the
  /// series' storage: valid until the next push/clear.
  std::span<const double> u() const { return u_; }
  std::span<const double> rss_linear() const { return rss_; }

  void clear() {
    u_.clear();
    rss_.clear();
  }

 private:
  std::vector<double> u_;
  std::vector<double> rss_;
};

}  // namespace ros::dsp
