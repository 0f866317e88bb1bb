#include "ros/obs/crash.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ros/obs/bench.hpp"
#include "ros/obs/flight_recorder.hpp"
#include "ros/obs/json.hpp"
#include "ros/obs/metrics.hpp"
#include "ros/obs/timer.hpp"
#include "ros/obs/trace.hpp"

namespace ros::obs {

namespace {

constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
                                 SIGILL};

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "sigsegv";
    case SIGABRT: return "sigabrt";
    case SIGBUS: return "sigbus";
    case SIGFPE: return "sigfpe";
    case SIGILL: return "sigill";
    default: return "signal";
  }
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::atomic<bool> g_handlers_installed{false};
std::atomic<int> g_crash_depth{0};

extern "C" void ros_obs_crash_handler(int sig) {
  // First crasher wins; a second fault (including one raised by the
  // bundle write itself) falls straight through to the re-raise.
  if (g_crash_depth.fetch_add(1, std::memory_order_acq_rel) == 0) {
    TraceExporter::global().crash_finalize();
    write_diagnostics_bundle(signal_name(sig));
  }
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

std::string diag_dir() {
  const char* v = std::getenv("ROS_OBS_DIAG_DIR");
  return (v == nullptr || *v == '\0') ? std::string("ros-diag")
                                      : std::string(v);
}

std::string write_diagnostics_bundle(std::string_view reason) {
  static std::atomic<int> seq{0};
  const std::string root = diag_dir();
  if (::mkdir(root.c_str(), 0755) != 0 && errno != EEXIST) return {};
  char name[256];
  std::snprintf(name, sizeof(name), "%s/%.*s-%d-%d", root.c_str(),
                static_cast<int>(std::min<std::size_t>(reason.size(), 64)),
                reason.data(), static_cast<int>(::getpid()),
                seq.fetch_add(1, std::memory_order_relaxed));
  if (::mkdir(name, 0755) != 0 && errno != EEXIST) return {};
  const std::string dir(name);

  // flight.json first, through the fd path: it is the file most worth
  // having when the heap is suspect.
  {
    const std::string path = dir + "/flight.json";
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      FlightRecorder::global().dump_json_fd(fd);
      ::close(fd);
    }
  }

  {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("ros-provenance-v1");
    w.key("reason").value(reason);
    w.key("pid").value(static_cast<std::int64_t>(::getpid()));
    w.key("t_mono_s").value(monotonic_s());
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
    w.end_object();
    write_text_file(dir + "/provenance.json", w.take());
  }

  write_text_file(dir + "/metrics.json",
                  MetricsRegistry::global().snapshot().to_json());
  return dir;
}

void install_crash_handlers() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) {
    return;
  }
  // Construct every singleton the handler will touch now, while the
  // process is healthy.
  (void)TraceExporter::global();
  (void)FlightRecorder::global();
  (void)MetricsRegistry::global();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = ros_obs_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  for (const int sig : kCrashSignals) {
    ::sigaction(sig, &sa, nullptr);
  }
}

bool crash_handlers_installed() {
  return g_handlers_installed.load(std::memory_order_relaxed);
}

void maybe_install_crash_handlers_from_env() {
  static const bool done = [] {
    if (const char* v = std::getenv("ROS_OBS_CRASH_HANDLERS");
        v != nullptr &&
        (std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0)) {
      install_crash_handlers();
    }
    return true;
  }();
  (void)done;
}

}  // namespace ros::obs
