// Crash diagnostics.
//
// write_diagnostics_bundle(reason) drops a self-contained directory of
// post-mortem evidence under ROS_OBS_DIAG_DIR (default "ros-diag"):
//
//   <dir>/<reason>-<pid>-<seq>/
//     flight.json      flight-recorder tail (ros-flight-v1)
//     metrics.json     full MetricsSnapshot at bundle time
//     provenance.json  build + host info, reason, pid, signal
//
// install_crash_handlers() hooks SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL:
// the first crashing thread finalizes the trace file, writes a bundle,
// then restores the default disposition and re-raises so the process
// still dies with the original signal (wait-status-accurate for CI and
// death tests). Bundle writing from a handler is deliberately
// best-effort: flight.json goes through the async-signal-tolerant
// dump_json_fd() path, the other files through normal serialization
// that may allocate — acceptable for diagnostics, never load-bearing.
// ROS_OBS_CRASH_HANDLERS=1 in the environment auto-installs the
// handlers the first time any obs entry point runs.
#pragma once

#include <string>
#include <string_view>

namespace ros::obs {

/// Directory bundles are written into: ROS_OBS_DIAG_DIR or "ros-diag".
std::string diag_dir();

/// Write a diagnostics bundle; returns the bundle directory path, or
/// empty on failure (diag dir not creatable). `reason` becomes part of
/// the directory name — keep it short and filesystem-safe.
std::string write_diagnostics_bundle(std::string_view reason);

/// Install the fatal-signal handlers (idempotent). Also pre-touches the
/// global trace/recorder/registry singletons so a later handler never
/// constructs them from a crashed context.
void install_crash_handlers();
bool crash_handlers_installed();

/// Install iff ROS_OBS_CRASH_HANDLERS is "1"/"on". Called from obs
/// session entry points; cheap after the first call.
void maybe_install_crash_handlers_from_env();

}  // namespace ros::obs
