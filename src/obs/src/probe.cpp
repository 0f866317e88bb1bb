#include "ros/obs/probe.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "ros/obs/bench.hpp"
#include "ros/obs/crash.hpp"
#include "ros/obs/json.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/metrics.hpp"

namespace ros::obs::probe {

namespace {

std::atomic<int> g_mode{-1};  ///< -1 = not yet read from env
std::atomic<std::uint32_t> g_sample_period{1};
std::atomic<std::size_t> g_max_artifact_bytes{256 * 1024};
std::atomic<std::uint64_t> g_bundles{0};
std::atomic<int> g_seq{0};

int env_mode() {
  const char* v = std::getenv("ROS_OBS_PROBE");
  return static_cast<int>(v == nullptr ? Mode::off : parse_mode(v));
}

int mode_raw() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    // First touch: resolve from the environment. Benign race — every
    // thread computes the same value.
    m = env_mode();
    g_mode.store(m, std::memory_order_relaxed);
  }
  return m;
}

struct PendingRead {
  bool capturing = false;
  std::string kind;
  std::uint64_t noise_seed = 0;
  std::uint64_t config_digest = 0;
  /// key -> already-serialized JSON value (number or quoted string).
  std::vector<std::pair<std::string, std::string>> annotations;
  std::vector<std::pair<std::string, std::string>> stages;
  struct Verdict {
    std::string stage;
    bool passed = false;
    std::string detail;
  };
  std::vector<Verdict> funnel;
  bool has_bits = false;
  std::vector<bool> bits;

  void reset() { *this = PendingRead{}; }
};

struct ThreadContext {
  bool has = false;
  std::string scenario;
  std::vector<bool> expected_bits;
};

PendingRead& pending() {
  static thread_local PendingRead p;
  return p;
}

ThreadContext& context() {
  static thread_local ThreadContext c;
  return c;
}

std::string& last_path() {
  static thread_local std::string p;
  return p;
}

/// 1 in sample_period() reads capture in Mode::always; per-thread
/// countdown so the decision costs one decrement.
bool should_sample() {
  const std::uint32_t period =
      g_sample_period.load(std::memory_order_relaxed);
  if (period <= 1) return true;
  static thread_local std::uint32_t countdown = 0;
  if (countdown == 0) {
    countdown = period - 1;
    return true;
  }
  --countdown;
  return false;
}

std::string sanitize_reason(std::string_view reason) {
  std::string out;
  for (const char c : reason.substr(0, 48)) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("read") : out;
}

void write_bits(JsonWriter& w, const std::vector<bool>& bits) {
  w.begin_array();
  for (const bool b : bits) w.value(b);
  w.end_array();
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::string render_bundle(const PendingRead& p, const ThreadContext& ctx,
                          std::string_view reason, bool bit_mismatch) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ros-read-provenance-v1");
  w.key("kind").value(p.kind);
  w.key("reason").value(reason);
  w.key("t_iso").value(utc_timestamp_iso8601());
  w.key("pid").value(static_cast<std::int64_t>(::getpid()));

  const BuildInfo b = build_info();
  w.key("build").begin_object();
  w.key("git_sha").value(b.git_sha);
  w.key("compiler").value(b.compiler);
  w.key("flags").value(b.flags);
  w.key("build_type").value(b.build_type);
  w.end_object();
  const HostInfo h = host_info();
  w.key("host").begin_object();
  w.key("os").value(h.os);
  w.key("arch").value(h.arch);
  w.key("hostname").value(h.hostname);
  w.key("n_cpus").value(h.n_cpus);
  w.end_object();

  // Seeds + digest: everything replay needs beyond the scenario. Frame
  // i's noise stream is derive_stream_seed(noise_seed, i).
  w.key("config").begin_object();
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(p.config_digest));
  w.key("digest").value(hex);
  w.key("noise_seed").value(static_cast<std::uint64_t>(p.noise_seed));
  w.key("rng_stream_rule")
      .value("frame i draws from derive_stream_seed(noise_seed, i)");
  w.end_object();

  if (ctx.has) {
    w.key("scenario").value(ctx.scenario);
    w.key("expected_bits");
    write_bits(w, ctx.expected_bits);
  }
  if (p.has_bits) {
    w.key("decoded_bits");
    write_bits(w, p.bits);
  }
  w.key("bit_mismatch").value(bit_mismatch);

  w.key("funnel").begin_array();
  for (const auto& v : p.funnel) {
    w.begin_object();
    w.key("stage").value(v.stage);
    w.key("passed").value(v.passed);
    w.key("detail").value(v.detail);
    w.end_object();
  }
  w.end_array();

  w.key("annotations").begin_object();
  for (const auto& [k, json] : p.annotations) {
    w.key(k).raw(json);
  }
  w.end_object();

  w.key("stages").begin_object();
  for (const auto& [name, json] : p.stages) {
    w.key(name).raw(json);
  }
  w.end_object();

  w.end_object();
  return w.take();
}

std::string write_bundle(const PendingRead& p, const ThreadContext& ctx,
                         std::string_view reason, bool bit_mismatch) {
  const std::string root = diag_dir();
  if (::mkdir(root.c_str(), 0755) != 0 && errno != EEXIST) return {};
  const std::string dir = root + "/reads";
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return {};

  char name[512];
  std::snprintf(name, sizeof(name), "%s/read-%s-%d-%d.json", dir.c_str(),
                sanitize_reason(reason).c_str(),
                static_cast<int>(::getpid()),
                g_seq.fetch_add(1, std::memory_order_relaxed));
  const std::string body = render_bundle(p, ctx, reason, bit_mismatch);
  if (!write_text_file(name, body)) return {};
  g_bundles.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::global().counter("obs.probe.bundles").inc();
  last_path() = name;
  ROS_LOG_INFO("obs", "read provenance bundle written",
               kv("path", std::string_view(name)), kv("reason", reason));
  return name;
}

/// Decoded-vs-expected comparison: only meaningful when the caller set
/// context and the read recorded bits. A no-read (empty bits) against a
/// non-empty expectation counts as a mismatch.
bool bits_mismatch(const PendingRead& p, const ThreadContext& ctx) {
  if (!ctx.has || !p.has_bits) return false;
  return p.bits != ctx.expected_bits;
}

}  // namespace

const char* to_string(Mode m) {
  switch (m) {
    case Mode::off: return "off";
    case Mode::failure: return "failure";
    case Mode::always: return "always";
  }
  return "off";
}

Mode parse_mode(std::string_view s) {
  if (s == "failure" || s == "fail") return Mode::failure;
  if (s == "always" || s == "on" || s == "1") return Mode::always;
  return Mode::off;
}

Mode mode() { return static_cast<Mode>(mode_raw()); }

void set_mode(Mode m) {
  g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

void set_sample_period(std::uint32_t n) {
  g_sample_period.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

bool armed() { return mode_raw() != static_cast<int>(Mode::off); }

std::size_t max_artifact_bytes() {
  return g_max_artifact_bytes.load(std::memory_order_relaxed);
}

void set_max_artifact_bytes(std::size_t bytes) {
  g_max_artifact_bytes.store(bytes, std::memory_order_relaxed);
}

bool begin_read(std::string_view kind, std::uint64_t noise_seed,
                std::uint64_t config_digest) {
  PendingRead& p = pending();
  p.reset();
  if (!armed()) return false;
  if (mode() == Mode::always && !should_sample()) return false;
  p.capturing = true;
  p.kind.assign(kind);
  p.noise_seed = noise_seed;
  p.config_digest = config_digest;
  MetricsRegistry::global().counter("obs.probe.reads_captured").inc();
  return true;
}

bool capturing() { return pending().capturing; }

void annotate(std::string_view key, double value) {
  PendingRead& p = pending();
  if (!p.capturing) return;
  JsonWriter w;
  w.value(value);
  p.annotations.emplace_back(std::string(key), w.take());
}

void annotate(std::string_view key, std::string_view value) {
  PendingRead& p = pending();
  if (!p.capturing) return;
  JsonWriter w;
  w.value(value);
  p.annotations.emplace_back(std::string(key), w.take());
}

void stage_artifact(std::string_view stage, std::string json) {
  PendingRead& p = pending();
  if (!p.capturing) return;
  if (json.size() > max_artifact_bytes()) {
    JsonWriter w;
    w.begin_object();
    w.key("truncated").value(true);
    w.key("bytes").value(static_cast<std::uint64_t>(json.size()));
    w.key("limit").value(static_cast<std::uint64_t>(max_artifact_bytes()));
    w.end_object();
    MetricsRegistry::global().counter("obs.probe.artifacts_dropped").inc();
    p.stages.emplace_back(std::string(stage), w.take());
    return;
  }
  p.stages.emplace_back(std::string(stage), std::move(json));
}

void funnel(std::string_view stage, bool passed, std::string_view detail) {
  PendingRead& p = pending();
  if (!p.capturing) return;
  p.funnel.push_back(
      {std::string(stage), passed, std::string(detail)});
}

void decoded_bits(const std::vector<bool>& bits) {
  PendingRead& p = pending();
  if (!p.capturing) return;
  p.has_bits = true;
  p.bits = bits;
}

void set_context(std::string scenario_text,
                 std::vector<bool> expected_bits) {
  ThreadContext& c = context();
  c.has = true;
  c.scenario = std::move(scenario_text);
  c.expected_bits = std::move(expected_bits);
}

void clear_context() { context() = ThreadContext{}; }

std::string end_read(std::string_view failure_reason) {
  PendingRead& p = pending();
  if (!p.capturing) return {};
  const ThreadContext& ctx = context();
  const bool mismatch = bits_mismatch(p, ctx);
  const bool failed = !failure_reason.empty() || mismatch;
  std::string path;
  if (mode() == Mode::always || (mode() == Mode::failure && failed)) {
    const std::string_view reason = !failure_reason.empty()
                                        ? failure_reason
                                        : (mismatch ? "bit_mismatch"
                                                    : "capture");
    path = write_bundle(p, ctx, reason, mismatch);
  }
  p.reset();
  return path;
}

std::string abort_read(std::string_view reason) {
  PendingRead& p = pending();
  if (!p.capturing) return {};
  const ThreadContext& ctx = context();
  const std::string path =
      write_bundle(p, ctx, reason.empty() ? "aborted" : reason,
                   bits_mismatch(p, ctx));
  p.reset();
  return path;
}

std::string last_bundle_path() { return last_path(); }

std::uint64_t bundles_written() {
  return g_bundles.load(std::memory_order_relaxed);
}

std::string reads_dir() { return diag_dir() + "/reads"; }

}  // namespace ros::obs::probe
