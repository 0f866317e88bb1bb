// `rosbench_e2e compare A.jsonl B.jsonl`: apply BENCHMARK.json's bounds
// to every end-to-end metric of every workload present in both result
// files (records written by --out; the last untraced record of a
// workload wins). A metric whose quartile spread, relative to its median,
// is wider than its bound on either side is "unresolved": the runs are
// too noisy to call it either way.
//
// Exit: 0 no regression, 1 at least one regression, 3 bad input.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "ros/obs/bench.hpp"

namespace e2e {

std::optional<ros::obs::JsonValue> load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ros::obs::json_parse(ss.str());
}

std::string string_field(const ros::obs::JsonValue& obj, const char* key) {
  const ros::obs::JsonValue* v = obj.find(key);
  return v == nullptr ? std::string() : std::string(v->string_or(""));
}

namespace {

double number_field(const ros::obs::JsonValue& obj, const char* key) {
  const ros::obs::JsonValue* v = obj.find(key);
  return v == nullptr ? NAN : v->number_or(NAN);
}

/// workload -> its last untraced record, in first-seen order.
using Records = std::vector<std::pair<std::string, ros::obs::JsonValue>>;

bool load_records(const std::string& path, Records& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<ros::obs::JsonValue> rec = ros::obs::json_parse(line);
    if (!rec || !rec->is_object()) return false;
    const ros::obs::JsonValue* trace = rec->find("trace");
    if (trace == nullptr || trace->bool_or(true)) continue;
    const std::string workload = string_field(*rec, "workload");
    bool replaced = false;
    for (auto& [name, value] : out) {
      if (name == workload) {
        value = std::move(*rec);
        replaced = true;
      }
    }
    if (!replaced) out.emplace_back(workload, std::move(*rec));
  }
  return true;
}

const ros::obs::JsonValue* find_record(const Records& records,
                                       const std::string& workload) {
  for (const auto& [name, value] : records) {
    if (name == workload) return &value;
  }
  return nullptr;
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string benchmark_json = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    if (!ros::obs::arg_take_value(argv[i], "--benchmark-json", argc, argv, i,
                                  &benchmark_json)) {
      files.emplace_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: rosbench_e2e compare A.jsonl B.jsonl "
                 "[--benchmark-json FILE]\n");
    return 3;
  }
  const auto bench = load_json_file(benchmark_json);
  const ros::obs::JsonValue* bounds =
      bench ? bench->find("end_to_end") : nullptr;
  Records a;
  Records b;
  if (bounds == nullptr || !load_records(files[0], a) ||
      !load_records(files[1], b)) {
    std::fprintf(stderr, "compare: cannot read %s, %s or %s\n",
                 benchmark_json.c_str(), files[0].c_str(), files[1].c_str());
    return 3;
  }

  int regressions = 0;
  int invalid = 0;
  int compared = 0;
  std::printf("%-14s %-18s %14s %14s %8s %8s %6s  %s\n", "workload",
              "metric", "A", "B", "change%", "spread%", "bound%", "verdict");
  for (const auto& [workload, rec_a] : a) {
    const ros::obs::JsonValue* rec_b = find_record(b, workload);
    if (rec_b == nullptr) continue;
    for (const ros::obs::JsonValue& entry : bounds->array) {
      const std::string name = string_field(entry, "name");
      const bool lower_better = string_field(entry, "better") == "lower";
      const double bound = number_field(entry, "bound");
      const ros::obs::JsonValue* ma = rec_a.at("metrics", name);
      const ros::obs::JsonValue* mb = rec_b->at("metrics", name);
      if (ma == nullptr || mb == nullptr) {
        std::printf("%-14s %-18s missing\n", workload.c_str(), name.c_str());
        return 3;
      }
      const double va = number_field(*ma, "value");
      const double vb = number_field(*mb, "value");
      const auto rel_spread = [](const ros::obs::JsonValue& m) {
        return (number_field(m, "q3") - number_field(m, "q1")) /
               std::abs(number_field(m, "value"));
      };
      const double spread = std::max(rel_spread(*ma), rel_spread(*mb));
      const double change = (vb - va) / std::abs(va);
      const double worse = lower_better ? change : -change;
      const char* verdict = "ok";
      if (!std::isfinite(change) || !std::isfinite(spread)) {
        verdict = "invalid";
        ++invalid;
      } else if (spread > bound) {
        verdict = "unresolved";
      } else if (worse > bound) {
        verdict = "REGRESSION";
        ++regressions;
      } else if (-worse > bound) {
        verdict = "improved";
      }
      ++compared;
      std::printf("%-14s %-18s %14.6g %14.6g %8.2f %8.2f %6.1f  %s\n",
                  workload.c_str(), name.c_str(), va, vb, 100.0 * change,
                  100.0 * spread, 100.0 * bound, verdict);
    }
  }
  if (compared == 0 || invalid > 0) {
    std::fprintf(stderr, "compare: %s\n",
                 compared == 0 ? "no workload in common"
                               : "non-finite values in the inputs");
    return 3;
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace e2e
