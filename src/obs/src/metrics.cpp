#include "ros/obs/metrics.hpp"

#include <algorithm>

#include "ros/common/expect.hpp"
#include "ros/obs/json.hpp"
#include "ros/obs/stats.hpp"

namespace ros::obs {

Histogram::Histogram(std::span<const double> upper_edges)
    : edges_(upper_edges.begin(), upper_edges.end()) {
  if (edges_.empty()) {
    const auto def = default_latency_buckets_ms();
    edges_.assign(def.begin(), def.end());
  }
  ROS_EXPECT(std::is_sorted(edges_.begin(), edges_.end()) &&
                 std::adjacent_find(edges_.begin(), edges_.end()) ==
                     edges_.end(),
             "histogram bucket edges must be strictly increasing");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(edges_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  const auto idx = static_cast<std::size_t>(it - edges_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(edges_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::span<const double> Histogram::default_latency_buckets_ms() {
  static const double edges[] = {0.001, 0.003, 0.01, 0.03, 0.1,  0.3,
                                 1.0,   3.0,   10.0, 30.0, 100.0, 300.0,
                                 1000.0, 3000.0, 10000.0, 30000.0};
  return edges;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_edges) {
  const std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_edges))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.upper_edges = h->upper_edges();
    hs.bucket_counts = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::clear() {
  const std::scoped_lock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

double HistogramSnapshot::quantile(double q) const {
  return quantile_from_buckets(upper_edges, bucket_counts, q);
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : histograms) {
    w.key(h.name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("p50").value(h.quantile(0.50));
    w.key("p90").value(h.quantile(0.90));
    w.key("p99").value(h.quantile(0.99));
    w.key("upper_edges").begin_array();
    for (double e : h.upper_edges) w.value(e);
    w.end_array();
    w.key("bucket_counts").begin_array();
    for (std::uint64_t c : h.bucket_counts) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

namespace {

/// Escape a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped per the text exposition format.
std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void prom_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

void prom_histogram(std::string& out, const HistogramSnapshot& h) {
  const std::string label = prom_escape(h.name);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
    cumulative += h.bucket_counts[b];
    out += "ros_histogram_bucket{name=\"" + label + "\",le=\"";
    if (b < h.upper_edges.size()) {
      prom_number(out, h.upper_edges[b]);
    } else {
      out += "+Inf";
    }
    out += "\"} " + std::to_string(cumulative) + "\n";
  }
  out += "ros_histogram_count{name=\"" + label + "\"} " +
         std::to_string(h.count) + "\n";
  out += "ros_histogram_sum{name=\"" + label + "\"} ";
  prom_number(out, h.sum);
  out += "\n";
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  // Instrument names keep their dotted form in a `name` label instead
  // of being mangled into Prometheus metric names; one ros_* family per
  // instrument kind keeps the exposition valid and greppable.
  std::string out;
  out += "# TYPE ros_counter counter\n";
  for (const auto& [name, v] : counters) {
    out += "ros_counter{name=\"" + prom_escape(name) + "\"} " +
           std::to_string(v) + "\n";
  }
  out += "# TYPE ros_gauge gauge\n";
  for (const auto& [name, v] : gauges) {
    out += "ros_gauge{name=\"" + prom_escape(name) + "\"} ";
    prom_number(out, v);
    out += "\n";
  }
  out += "# TYPE ros_histogram histogram\n";
  for (const auto& h : histograms) prom_histogram(out, h);
  return out;
}

}  // namespace ros::obs
