#include "ros/obs/flight_recorder.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "ros/obs/json.hpp"
#include "ros/obs/trace.hpp"

namespace ros::obs {

namespace {

/// Name -> id index over FlightRecorder::names_. Kept file-local so the
/// header stays free of <map>.
std::map<std::string, std::uint32_t, std::less<>>& intern_index() {
  static std::map<std::string, std::uint32_t, std::less<>> index;
  return index;
}

thread_local std::uint32_t t_sample_countdown = 0;
thread_local bool t_sample_primed = false;

/// write(2) the whole buffer; EINTR-tolerant.
bool write_all(int fd, const char* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::mark: return "mark";
    case FlightKind::frame_begin: return "frame_begin";
    case FlightKind::frame_end: return "frame_end";
    case FlightKind::rng_seed: return "rng_seed";
    case FlightKind::queue_depth: return "queue_depth";
    case FlightKind::arena_hwm: return "arena_hwm";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() {
  names_.reserve(64);
  names_.emplace_back("!overflow");
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_sample_period(std::uint32_t period) {
  sample_period_.store(std::max<std::uint32_t>(period, 1),
                       std::memory_order_relaxed);
}

std::uint32_t FlightRecorder::intern(std::string_view name) {
  const std::scoped_lock lock(names_mu_);
  auto& index = intern_index();
  if (const auto it = index.find(name); it != index.end()) {
    return it->second;
  }
  if (names_.size() >= kMaxNames) return 0;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index.emplace(std::string(name), id);
  return id;
}

bool FlightRecorder::should_sample() {
  if (!t_sample_primed) {
    // Phase 0 so the very first frame of a run is always captured.
    t_sample_primed = true;
    t_sample_countdown = 0;
  }
  if (t_sample_countdown == 0) {
    t_sample_countdown = sample_period_.load(std::memory_order_relaxed);
    if (t_sample_countdown > 0) --t_sample_countdown;
    return true;
  }
  --t_sample_countdown;
  return false;
}

void FlightRecorder::reset_thread_sampling() { t_sample_primed = false; }

FlightRecorder::Ring& FlightRecorder::thread_ring() {
  thread_local Ring* cached = nullptr;
  if (cached == nullptr) {
    const std::scoped_lock lock(rings_mu_);
    rings_.push_back(std::make_unique<Ring>(
        kRingCapacity, static_cast<std::uint16_t>(
                            TraceExporter::this_thread_id() & 0xffff)));
    cached = rings_.back().get();
  }
  return *cached;
}

void FlightRecorder::record(FlightKind kind, std::uint32_t name_id,
                            std::uint64_t value) {
  if (!enabled()) return;
  Ring& ring = thread_ring();
  const std::uint64_t idx = ring.head.load(std::memory_order_relaxed);
  FlightEvent& slot = ring.buf[idx % ring.buf.size()];
  slot.t_us = TraceExporter::now_us();
  slot.value = value;
  slot.name_id = name_id;
  slot.tid = ring.tid;
  slot.kind = kind;
  ring.head.store(idx + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  {
    const std::scoped_lock lock(rings_mu_);
    for (const auto& ring : rings_) {
      const std::uint64_t head =
          ring->head.load(std::memory_order_acquire);
      const std::uint64_t n =
          std::min<std::uint64_t>(head, ring->buf.size());
      for (std::uint64_t k = head - n; k < head; ++k) {
        out.push_back(ring->buf[k % ring->buf.size()]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.t_us < b.t_us;
            });
  return out;
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightEvent> events = snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ros-flight-v1");
  w.key("ring_capacity").value(static_cast<std::uint64_t>(kRingCapacity));
  w.key("sample_period").value(static_cast<std::uint64_t>(sample_period()));
  w.key("threads").value(static_cast<std::uint64_t>(thread_count()));
  w.key("dropped").value(dropped());
  w.key("names").begin_array();
  {
    const std::scoped_lock lock(names_mu_);
    for (const std::string& n : names_) w.value(n);
  }
  w.end_array();
  w.key("events").begin_array();
  for (const FlightEvent& ev : events) {
    w.begin_object();
    w.key("t_us").value(static_cast<std::int64_t>(ev.t_us));
    w.key("kind").value(to_string(ev.kind));
    w.key("name").value(static_cast<std::uint64_t>(ev.name_id));
    w.key("tid").value(static_cast<std::uint64_t>(ev.tid));
    w.key("value").value(ev.value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

int FlightRecorder::dump_json_fd(int fd) const noexcept {
  // Stack buffer + snprintf + write(2) only: no allocation, no locks on
  // the ring side (racy reads are acceptable post-mortem). The names
  // table is read without its mutex — entries are append-only and the
  // vector is reserved, so in the worst case a name added mid-crash is
  // missed.
  char buf[512];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"schema\":\"ros-flight-v1\",\"ring_capacity\""
                        ":%zu,\"sample_period\":%u,\"names\":[",
                        kRingCapacity, sample_period());
  if (n < 0 || !write_all(fd, buf, static_cast<std::size_t>(n))) return -1;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    // Interned names are code literals (stage ids); escape the two
    // characters that could break the JSON string anyway.
    n = std::snprintf(buf, sizeof(buf), "%s\"", i == 0 ? "" : ",");
    if (n < 0 || !write_all(fd, buf, static_cast<std::size_t>(n))) return -1;
    for (const char c : names_[i]) {
      if (c == '"' || c == '\\') {
        const char esc[2] = {'\\', c};
        if (!write_all(fd, esc, 2)) return -1;
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        if (!write_all(fd, &c, 1)) return -1;
      }
    }
    if (!write_all(fd, "\"", 1)) return -1;
  }
  if (!write_all(fd, "],\"events\":[", 12)) return -1;
  bool first = true;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t count =
        std::min<std::uint64_t>(head, ring->buf.size());
    for (std::uint64_t k = head - count; k < head; ++k) {
      const FlightEvent ev = ring->buf[k % ring->buf.size()];
      n = std::snprintf(
          buf, sizeof(buf),
          "%s{\"t_us\":%lld,\"kind\":\"%s\",\"name\":%u,\"tid\":%u,"
          "\"value\":%llu}",
          first ? "" : ",", static_cast<long long>(ev.t_us),
          to_string(ev.kind), ev.name_id, ev.tid,
          static_cast<unsigned long long>(ev.value));
      if (n < 0 || !write_all(fd, buf, static_cast<std::size_t>(n))) {
        return -1;
      }
      first = false;
    }
  }
  return write_all(fd, "]}\n", 3) ? 0 : -1;
}

std::size_t FlightRecorder::thread_count() const {
  const std::scoped_lock lock(rings_mu_);
  return rings_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  const std::scoped_lock lock(rings_mu_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > ring->buf.size()) dropped += head - ring->buf.size();
  }
  return dropped;
}

std::uint64_t FlightRecorder::total_recorded() const {
  const std::scoped_lock lock(rings_mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace ros::obs
