// Thread-safe process-wide metrics: named counters, gauges, and
// fixed-bucket latency histograms.
//
// Instruments are created on first use and live until the registry is
// cleared (tests only) or the process exits, so callers may cache the
// returned references across hot loops; all mutation paths are
// lock-free atomics. snapshot()/to_json() give a consistent-enough view
// for sidecar files and end-of-run reports (bucket counts are read
// relaxed, so a snapshot taken mid-update may be off by in-flight
// increments — fine for monitoring, not for accounting).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ros::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= upper_edges[i]
/// (first matching bucket); one extra overflow bucket counts the rest.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_edges);

  void observe(double v);

  const std::vector<double>& upper_edges() const { return edges_; }
  /// Relaxed-read copy of all bucket counts (size = edges + 1 overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Log-spaced edges from 1 us to 30 s, suited to stage timings in ms.
  static std::span<const double> default_latency_buckets_ms();

 private:
  std::vector<double> edges_;  ///< strictly increasing
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> upper_edges;
  std::vector<std::uint64_t> bucket_counts;  ///< last entry = overflow
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Interpolated summary quantile (q in [0,1]) from the bucket edges
  /// (see stats.hpp: uniform-within-bucket assumption; the overflow
  /// bucket collapses to the last edge). Snapshots serialize p50/p90/
  /// p99 so sidecar consumers need not re-derive them from raw buckets.
  double quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::string to_json() const;
  /// Prometheus text exposition format (one ros_* family per instrument
  /// kind, metric names carried in a `name` label, escaped per spec).
  std::string to_prometheus() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (what the pipeline and benches report into).
  static MetricsRegistry& global();

  /// Find-or-create; references stay valid until clear().
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_edges` is used only on first creation; empty means
  /// default_latency_buckets_ms().
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_edges = {});

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

  /// Drop every instrument. Invalidates previously returned references;
  /// only call between runs (tests, bench warmup).
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

}  // namespace ros::obs
