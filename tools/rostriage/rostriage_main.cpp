// rostriage — decode-forensics inspection CLI for ros-read-provenance
// bundles (see DESIGN.md §6c).
//
//   rostriage report bundle.json
//   rostriage replay bundle.json [--threads N] [--simd BACKEND]
//   rostriage diff a.json b.json
//   rostriage capture --scenario file.scenario [--full]
//
// Exit codes: 0 success (replay identical / diff identical), 1 the
// forensic check failed (replay diverged, bundles differ), 2 usage or
// I/O error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "triage.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: rostriage <command> ...\n"
      "  report  <bundle.json>                render the read funnel,\n"
      "                                       bit margins and artifacts\n"
      "  replay  <bundle.json> [--threads N] [--simd BACKEND]\n"
      "                                       re-run the captured read\n"
      "                                       from its embedded scenario\n"
      "                                       and verify bits + funnel\n"
      "                                       reproduce bit-identically\n"
      "  diff    <a.json> <b.json>            compare two bundles\n"
      "  capture --scenario <file> [--full]   force-capture a read of a\n"
      "                                       testkit scenario (--full\n"
      "                                       also runs the detection\n"
      "                                       pipeline)\n"
      "\nBundles are written under $ROS_OBS_DIAG_DIR/reads (default\n"
      "ros-diag/reads) by armed pipelines: ROS_OBS_PROBE=failure|always.\n");
  return 2;
}

int cmd_report(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const ros::triage::Bundle b = ros::triage::load_bundle(args[0]);
  std::fputs(ros::triage::report(b).c_str(), stdout);
  return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
  std::string path;
  std::size_t threads = 0;
  std::string simd;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads" && i + 1 < args.size()) {
      threads = static_cast<std::size_t>(std::atol(args[++i].c_str()));
    } else if (args[i] == "--simd" && i + 1 < args.size()) {
      simd = args[++i];
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  const ros::triage::Bundle b = ros::triage::load_bundle(path);
  const ros::triage::ReplayResult r =
      ros::triage::replay(b, threads, simd);
  if (!r.ran) {
    std::fprintf(stderr, "rostriage replay: cannot replay: %s\n",
                 r.detail.c_str());
    return 2;
  }
  std::printf("replay bundle: %s\n", r.bundle_path.c_str());
  std::printf("%s: %s\n", r.identical ? "IDENTICAL" : "DIVERGED",
              r.detail.c_str());
  return r.identical ? 0 : 1;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const ros::triage::Bundle a = ros::triage::load_bundle(args[0]);
  const ros::triage::Bundle b = ros::triage::load_bundle(args[1]);
  bool identical = false;
  std::fputs(ros::triage::diff(a, b, &identical).c_str(), stdout);
  return identical ? 0 : 1;
}

std::string read_file_or_die(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "rostriage capture: cannot open %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::string body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, n);
  }
  std::fclose(f);
  return body;
}

int cmd_capture(const std::vector<std::string>& args) {
  std::string scenario_path;
  bool full = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scenario" && i + 1 < args.size()) {
      scenario_path = args[++i];
    } else if (args[i] == "--full") {
      full = true;
    } else {
      return usage();
    }
  }
  if (scenario_path.empty()) return usage();
  const std::vector<std::string> paths =
      ros::triage::capture(read_file_or_die(scenario_path), full);
  for (const std::string& p : paths) {
    std::printf("%s\n", p.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "report") return cmd_report(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "capture") return cmd_capture(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rostriage: %s\n", e.what());
    return 2;
  }
  return usage();
}
