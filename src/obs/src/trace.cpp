#include "ros/obs/trace.hpp"

#include <cstdlib>

#include "ros/obs/json.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/timer.hpp"

namespace ros::obs {

namespace {

// Every batch write ends with this suffix; the next batch seeks back
// over it so the file is a complete JSON document between writes.
constexpr char kSuffix[] = "\n]}\n";
constexpr long kSuffixLen = 4;

// Spill to the file once this many events are pending; keeps memory
// bounded-ish on long traced runs without a syscall per span.
constexpr std::size_t kSpillBatch = 256;

void write_event_json(JsonWriter& w, const TraceEvent& ev) {
  w.begin_object();
  w.key("name").value(ev.name);
  w.key("cat").value(ev.category);
  w.key("ph").value("X");
  w.key("ts").value(static_cast<std::int64_t>(ev.ts_us));
  w.key("dur").value(static_cast<std::int64_t>(ev.dur_us));
  w.key("pid").value(1);
  w.key("tid").value(static_cast<std::int64_t>(ev.tid));
  w.end_object();
}

}  // namespace

TraceExporter::TraceExporter() = default;

TraceExporter::~TraceExporter() {
  const std::scoped_lock lock(mu_);
  if (enabled_.load(std::memory_order_acquire)) flush_pending_locked();
  close_file_locked();
}

TraceExporter& TraceExporter::global() {
  static TraceExporter exporter;
  static const bool env_checked = [] {
    if (const char* path = std::getenv("ROS_TRACE_FILE");
        path != nullptr && path[0] != '\0') {
      exporter.enable(path);
    }
    // Abnormal-but-orderly exits (std::exit from error paths) still get
    // their pending events; the destructor covers normal teardown.
    std::atexit([] { TraceExporter::global().crash_finalize(); });
    return true;
  }();
  (void)env_checked;
  return exporter;
}

bool TraceExporter::open_file_locked() {
  close_file_locked();
  if (path_.empty()) return false;
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    ROS_LOG_ERROR("obs", "cannot open trace file", kv("path", path_));
    return false;
  }
  const char prefix[] = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::fwrite(prefix, 1, sizeof(prefix) - 1, file_);
  std::fwrite(kSuffix, 1, kSuffixLen, file_);
  std::fflush(file_);
  file_flushed_ = 0;
  file_has_events_ = false;
  return true;
}

void TraceExporter::close_file_locked() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_flushed_ = 0;
  file_has_events_ = false;
}

bool TraceExporter::flush_pending_locked() const {
  if (file_ == nullptr) return false;
  if (file_flushed_ >= events_.size()) {
    return std::fflush(file_) == 0;
  }
  if (std::fseek(file_, -kSuffixLen, SEEK_END) != 0) return false;
  JsonWriter w;
  for (std::size_t i = file_flushed_; i < events_.size(); ++i) {
    // First event ever gets just a newline; the rest need the comma.
    w.raw(file_has_events_ || i != file_flushed_ ? ",\n" : "\n");
    write_event_json(w, events_[i]);
  }
  const std::string batch = w.take();
  bool ok = std::fwrite(batch.data(), 1, batch.size(), file_) ==
            batch.size();
  ok = std::fwrite(kSuffix, 1, kSuffixLen, file_) ==
           static_cast<std::size_t>(kSuffixLen) &&
       ok;
  ok = std::fflush(file_) == 0 && ok;
  file_flushed_ = events_.size();
  file_has_events_ = true;
  return ok;
}

void TraceExporter::enable(std::string path) {
  const std::scoped_lock lock(mu_);
  path_ = std::move(path);
  events_.clear();
  open_file_locked();
  enabled_.store(true, std::memory_order_release);
}

void TraceExporter::disable() {
  const std::scoped_lock lock(mu_);
  if (enabled_.load(std::memory_order_acquire)) flush_pending_locked();
  close_file_locked();
  enabled_.store(false, std::memory_order_release);
  path_.clear();
  events_.clear();
}

std::int64_t TraceExporter::now_us() {
  return static_cast<std::int64_t>(monotonic_s() * 1e6);
}

void TraceExporter::record_complete(std::string_view name,
                                    std::string_view category,
                                    std::int64_t ts_us,
                                    std::int64_t dur_us) {
  if (!enabled()) return;
  TraceEvent ev{std::string(name), std::string(category), ts_us, dur_us,
                this_thread_id()};
  const std::scoped_lock lock(mu_);
  events_.push_back(std::move(ev));
  if (file_ != nullptr && events_.size() - file_flushed_ >= kSpillBatch) {
    flush_pending_locked();
  }
}

std::size_t TraceExporter::event_count() const {
  const std::scoped_lock lock(mu_);
  return events_.size();
}

bool TraceExporter::flush() const {
  const std::scoped_lock lock(mu_);
  if (!enabled_.load(std::memory_order_acquire) || path_.empty()) {
    return false;
  }
  if (file_ == nullptr) {
    // enable() failed to open the path (or the file was closed); retry
    // once so a transient failure does not wedge the session.
    auto* self = const_cast<TraceExporter*>(this);
    if (!self->open_file_locked()) return false;
  }
  return flush_pending_locked();
}

void TraceExporter::crash_finalize() const noexcept {
  // Terminating context: if another thread holds the lock mid-write,
  // back off — the last completed batch already left a valid file.
  if (!mu_.try_lock()) return;
  if (enabled_.load(std::memory_order_acquire) && file_ != nullptr) {
    flush_pending_locked();
  }
  mu_.unlock();
}

std::uint32_t TraceExporter::this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace ros::obs
