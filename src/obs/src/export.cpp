#include "ros/obs/export.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "ros/obs/json.hpp"
#include "ros/obs/metrics.hpp"

namespace ros::obs {

namespace {

std::string env_path(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

bool append_line(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

bool replace_file(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

SnapshotExporter::SnapshotExporter(Options options)
    : options_(std::move(options)) {
  if (options_.interval_s <= 0.0) options_.interval_s = 1.0;
}

SnapshotExporter::~SnapshotExporter() { stop(); }

SnapshotExporter& SnapshotExporter::global() {
  static SnapshotExporter* exporter = [] {
    Options opt;
    opt.jsonl_path = env_path("ROS_OBS_EXPORT_FILE");
    opt.prom_path = env_path("ROS_OBS_PROM_FILE");
    // Leaked intentionally: the export thread may outlive static
    // teardown order otherwise (it reads the metrics registry).
    // Touch the registry first so its teardown is ordered after the
    // atexit handler below (it snapshots the registry).
    (void)MetricsRegistry::global();
    auto* e = new SnapshotExporter(std::move(opt));
    if (!e->options().jsonl_path.empty() ||
        !e->options().prom_path.empty()) {
      e->start();
      // The instance is leaked, so orderly exits need an explicit stop
      // to get the final shutdown tick (runs shorter than one interval
      // would otherwise export nothing).
      std::atexit([] { SnapshotExporter::global().stop(); });
    }
    return e;
  }();
  return *exporter;
}

void SnapshotExporter::ensure_started_from_env() { (void)global(); }

void SnapshotExporter::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { thread_main(); });
}

void SnapshotExporter::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  {
    const std::scoped_lock lock(wake_mu_);
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void SnapshotExporter::thread_main() {
  const auto interval = std::chrono::duration<double>(options_.interval_s);
  std::unique_lock lock(wake_mu_);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    wake_cv_.wait_for(lock, interval, [this] {
      return stop_requested_.load(std::memory_order_relaxed);
    });
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    tick();
    lock.lock();
  }
  // Final tick so short runs still export at least once on shutdown.
  lock.unlock();
  tick();
}

bool SnapshotExporter::tick_at(double now_s) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  bool ok = true;
  if (!options_.jsonl_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("t_s").value(now_s);
    w.key("metrics").raw(snap.to_json());
    w.end_object();
    ok = append_line(options_.jsonl_path, w.take()) && ok;
  }
  if (!options_.prom_path.empty()) {
    ok = replace_file(options_.prom_path, snap.to_prometheus()) && ok;
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace ros::obs
