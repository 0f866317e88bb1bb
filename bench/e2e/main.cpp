// rosbench_e2e — the repository benchmark (README.md in this directory).
//
//   rosbench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--out FILE] [--trace-out FILE]
//   rosbench_e2e --smoke [--benchmark-json FILE]
//   rosbench_e2e compare A.jsonl B.jsonl [--benchmark-json FILE]
//
// A run prints provenance lines ("# key=value"), one
// "workload metric value unit" line per metric, and, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --out appends the
// run's full record (with quartiles) to a JSON-lines file.
#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "e2e.hpp"
#include "ros/obs/bench.hpp"
#include "ros/obs/json.hpp"
#include "ros/simd/simd.hpp"
#include "ros/tag/codec.hpp"

extern char** environ;

namespace {

/// Each of these changes the program being measured (decoder routing,
/// probe capture, exporters, allocation counting), so a run refuses them.
constexpr std::array<const char*, 6> kRefusedEnv = {
    "ROS_DECODER",         "ROS_OBS_PROBE",     "ROS_TRACE_FILE",
    "ROS_OBS_EXPORT_FILE", "ROS_OBS_PROM_FILE", "ROS_OBS_COUNT_ALLOCS"};

int usage(const char* why) {
  std::fprintf(stderr,
               "rosbench_e2e: %s\n"
               "usage: rosbench_e2e --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--out FILE] [--trace-out FILE]\n"
               "       rosbench_e2e --smoke [--benchmark-json FILE]\n"
               "       rosbench_e2e compare A.jsonl B.jsonl"
               " [--benchmark-json FILE]\n",
               why);
  return 2;
}

using Provenance = std::vector<std::pair<std::string, std::string>>;

Provenance provenance(const e2e::RunOptions& opts) {
  const ros::obs::BuildInfo build = ros::obs::build_info();
  Provenance p = {
      {"utc", ros::obs::utc_timestamp_iso8601()},
      {"git_sha", build.git_sha},
      {"compiler", build.compiler},
      {"build_type", build.build_type},
      {"simd_backend", ros::simd::backend_name()},
      {"decoder_backend",
       ros::tag::to_string(ros::tag::resolve_decoder_backend(
           ros::tag::DecoderBackend::auto_))},
      {"threads", std::to_string(e2e::workload_threads(opts.workload))},
      {"seed", std::to_string(opts.seed)},
      {"nproc", std::to_string(ros::obs::host_info().n_cpus)},
  };
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::size_t eq = kv.find('=');
    if (kv.rfind("ROS_", 0) == 0 && eq != std::string::npos) {
      p.emplace_back("env." + kv.substr(0, eq), kv.substr(eq + 1));
    }
  }
  return p;
}

/// The run's full record for --out (one JSON line).
std::string record_json(const e2e::RunOptions& opts, bool trace,
                        const Provenance& prov, const e2e::RunResult& r) {
  ros::obs::JsonWriter w;
  w.begin_object()
      .key("workload").value(opts.workload)
      .key("trace").value(trace)
      .key("seed").value(opts.seed)
      .key("seconds").value(opts.seconds);
  w.key("provenance").begin_object();
  for (const auto& [k, v] : prov) w.key(k).value(v);
  w.end_object();
  w.key("correct").value(r.correct())
      .key("attempted").value(r.attempted)
      .key("failed").value(r.failed);
  w.key("failures").begin_array();
  for (const std::string& f : r.failures) w.value(f);
  w.end_array();
  w.key("metrics").begin_object();
  for (const e2e::Metric& m : r.metrics) {
    const e2e::Spread s = e2e::spread_of(m.samples);
    w.key(m.name).begin_object()
        .key("value").value(s.median)
        .key("unit").value(m.unit)
        .key("q1").value(s.q1)
        .key("q3").value(s.q3)
        .key("n").value(static_cast<std::uint64_t>(m.samples.size()))
        .end_object();
  }
  w.end_object().end_object();
  return w.take();
}

/// The contract's result line.
std::string result_json(const e2e::RunResult& r) {
  ros::obs::JsonWriter w;
  w.begin_object()
      .key("correct").value(r.correct())
      .key("attempted").value(r.attempted)
      .key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const e2e::Metric& m : r.metrics) {
    w.key(m.name).begin_object()
        .key("value").value(e2e::spread_of(m.samples).median)
        .key("unit").value(m.unit)
        .end_object();
  }
  w.end_object().end_object();
  return w.take();
}

void print_failures(const e2e::RunResult& r) {
  const std::size_t shown = std::min<std::size_t>(r.failures.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    std::fprintf(stderr, "FAILED: %s\n", r.failures[i].c_str());
  }
  if (r.failures.size() > shown) {
    std::fprintf(stderr, "FAILED: ... %zu more\n", r.failures.size() - shown);
  }
}

using NameUnits = std::vector<std::pair<std::string, std::string>>;

NameUnits listed_metrics(const ros::obs::JsonValue& bench, const char* key) {
  NameUnits out;
  if (const ros::obs::JsonValue* list = bench.find(key)) {
    for (const ros::obs::JsonValue& m : list->array) {
      out.emplace_back(e2e::string_field(m, "name"),
                       e2e::string_field(m, "unit"));
    }
  }
  return out;
}

/// Every workload at toy size, untraced and traced: each must pass its
/// checks and emit exactly the metrics (and units) BENCHMARK.json lists.
int smoke(const std::string& benchmark_json) {
  const auto bench = e2e::load_json_file(benchmark_json);
  if (!bench || !bench->is_object()) {
    std::fprintf(stderr, "smoke: cannot read %s\n", benchmark_json.c_str());
    return 2;
  }
  std::vector<std::string> listed;
  if (const ros::obs::JsonValue* ws = bench->find("workloads")) {
    for (const ros::obs::JsonValue& w : ws->array) {
      listed.push_back(e2e::string_field(w, "name"));
    }
  }
  bool ok = listed == e2e::workload_names();
  if (!ok) std::fprintf(stderr, "smoke: workload list differs\n");
  for (const std::string& name : e2e::workload_names()) {
    for (const bool trace : {false, true}) {
      e2e::RunOptions opts;
      opts.workload = name;
      opts.seconds = 0.0;
      opts.smoke = true;
      const e2e::RunResult r =
          trace ? e2e::run_traced(opts) : e2e::run_timed(opts);
      NameUnits emitted;
      for (const e2e::Metric& m : r.metrics) {
        emitted.emplace_back(m.name, m.unit);
      }
      const bool names_ok =
          emitted ==
          listed_metrics(*bench, trace ? "per_layer" : "end_to_end");
      print_failures(r);
      std::printf("smoke %s trace=%d: %s%s\n", name.c_str(), trace ? 1 : 0,
                  r.correct() ? "checks pass" : "CHECKS FAILED",
                  names_ok ? "" : ", METRICS DIFFER FROM BENCHMARK.json");
      ok = ok && names_ok && r.correct();
    }
  }
  return ok ? 0 : 1;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || s[0] == '-') return false;
  out = v;
  return true;
}

bool parse_seconds(const std::string& s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v) || v < 0.0 ||
      v > 3600.0) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "compare") == 0) {
    return e2e::compare_main(argc - 1, argv + 1);
  }
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "rosbench_e2e: refusing to run with %s set: it changes "
                   "the program being measured\n",
                   var);
      return 2;
    }
  }

  e2e::RunOptions opts;
  bool trace = false;
  bool run_smoke = false;
  std::string out_path;
  std::string benchmark_json = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string v;
    if (arg == "--smoke") {
      run_smoke = true;
    } else if (ros::obs::arg_take_value(arg, "--workload", argc, argv, i,
                                        &opts.workload) ||
               ros::obs::arg_take_value(arg, "--out", argc, argv, i,
                                        &out_path) ||
               ros::obs::arg_take_value(arg, "--trace-out", argc, argv, i,
                                        &opts.trace_out) ||
               ros::obs::arg_take_value(arg, "--benchmark-json", argc, argv,
                                        i, &benchmark_json)) {
      // stored by arg_take_value
    } else if (ros::obs::arg_take_value(arg, "--seed", argc, argv, i, &v)) {
      if (!parse_u64(v, opts.seed)) return usage("--seed needs an integer");
    } else if (ros::obs::arg_take_value(arg, "--seconds", argc, argv, i,
                                        &v)) {
      if (!parse_seconds(v, opts.seconds)) {
        return usage("--seconds needs a number in [0, 3600]");
      }
    } else if (ros::obs::arg_take_value(arg, "--trace", argc, argv, i, &v)) {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      trace = v == "1";
    } else {
      return usage(("unknown argument: " + std::string(arg)).c_str());
    }
  }
  if (run_smoke) return smoke(benchmark_json);

  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    return usage(("unknown workload: '" + opts.workload + "'").c_str());
  }

  const e2e::RunResult r =
      trace ? e2e::run_traced(opts) : e2e::run_timed(opts);

  const Provenance prov = provenance(opts);
  for (const auto& [k, v] : prov) {
    std::printf("# %s=%s\n", k.c_str(), v.c_str());
  }
  for (const e2e::Metric& m : r.metrics) {
    std::printf("%s %s %.9g %s\n", opts.workload.c_str(), m.name.c_str(),
                e2e::spread_of(m.samples).median, m.unit.c_str());
  }
  print_failures(r);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "rosbench_e2e: cannot append to %s\n",
                   out_path.c_str());
      return 2;
    }
    const std::string line = record_json(opts, trace, prov, r) + "\n";
    std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
  }
  std::printf("%s\n", result_json(r).c_str());
  return r.correct() ? 0 : 1;
}
