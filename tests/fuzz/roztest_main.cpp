// roztest: coverage-guided scenario fuzzer for the interrogation
// pipeline.
//
// Mutates a corpus of encoded Scenario files (tests/corpus/*.scenario),
// runs each mutant through decode_drive / Interrogator::run, and checks
// the ros::testkit invariant oracles: every reported number finite,
// funnel consistent, decoded payload width matching the tag family,
// bit-identical results across thread counts, the engine matching the
// serial layer-call oracle, and RSS / decode quality not improving under
// heavier weather. Thorough iterations also run the corridor
// differential: a random fleet pushed through the sharded
// ros::corridor engine must reproduce standalone decode_drive bit for
// bit on every (vehicle, tag) readout. Coverage guidance is by behavior
// signature (funnel shape + decode outcome + coarse signal regime): a
// mutant that lands in a new bucket joins the live corpus.
//
// Everything derives from --seed via counter-based RNG streams, so a
// whole fuzz session replays exactly, and any failing input is saved as
// a self-contained scenario file replayable with --replay.
//
// Usage:
//   roztest [--runs N] [--max-seconds S] [--seed S] [--corpus DIR]
//           [--save DIR] [--replay FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/corridor/engine.hpp"
#include "ros/em/material.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/log.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/streaming.hpp"
#include "ros/testkit/oracles.hpp"
#include "ros/testkit/scenario.hpp"
#include "../support/pipeline_oracle.hpp"
#include "../support/stream_equality.hpp"

namespace {

namespace fs = std::filesystem;
namespace tk = ros::testkit;
using ros::common::Rng;
using ros::common::derive_stream_seed;

struct Options {
  int runs = 200;
  double max_seconds = 120.0;
  std::uint64_t seed = 0x526f7a74657374ull;  // "Roztest"
  std::string corpus_dir = "tests/corpus";
  std::string save_dir;  // defaults to corpus_dir
  std::string replay_file;
};

const ros::em::StriplineStackup& stackup() {
  static const auto s = ros::em::StriplineStackup::ros_default();
  return s;
}

int count_bit_errors(const std::vector<bool>& got,
                     const std::vector<bool>& want) {
  if (got.size() != want.size()) {
    return static_cast<int>(want.size());  // no-read counts as all wrong
  }
  int errors = 0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    errors += got[k] != want[k];
  }
  return errors;
}

/// Restores the global pool width on scope exit, whatever the check did.
struct ThreadsGuard {
  ~ThreadsGuard() {
    ros::exec::ThreadPool::set_global_threads(ros::exec::default_threads());
  }
};

tk::OracleVerdict run_decode_oracles(
    const tk::Scenario& s, ros::pipeline::DecodeDriveResult* out = nullptr) {
  const auto scene = s.make_scene(&stackup());
  const auto result =
      ros::pipeline::decode_drive(scene, s.make_drive(), {0.0, 0.0},
                                  s.make_config());
  if (out != nullptr) *out = result;
  return tk::check_decode_invariants(result, s);
}

tk::OracleVerdict run_report_oracles(
    const tk::Scenario& s,
    ros::pipeline::InterrogationReport* out = nullptr) {
  const auto scene = s.make_scene(&stackup());
  const ros::pipeline::Interrogator inter(s.make_config());
  const auto report = inter.run(scene, s.make_drive());
  if (out != nullptr) *out = report;
  return tk::check_report_invariants(report, s);
}

/// Thread-count invariance: the counter-based noise streams promise
/// bit-identical results on 1 thread and on several.
tk::OracleVerdict check_thread_invariance(const tk::Scenario& s) {
  ThreadsGuard guard;
  ros::exec::ThreadPool::set_global_threads(1);
  ros::pipeline::DecodeDriveResult serial;
  if (auto v = run_decode_oracles(s, &serial); !v.ok) return v;
  ros::exec::ThreadPool::set_global_threads(3);
  ros::pipeline::DecodeDriveResult parallel;
  if (auto v = run_decode_oracles(s, &parallel); !v.ok) return v;

  if (serial.samples.size() != parallel.samples.size()) {
    return tk::OracleVerdict::fail(
        "thread invariance: sample counts differ (" +
        std::to_string(serial.samples.size()) + " vs " +
        std::to_string(parallel.samples.size()) + ")");
  }
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    if (serial.samples[i].u != parallel.samples[i].u ||
        serial.samples[i].rss_w != parallel.samples[i].rss_w) {
      return tk::OracleVerdict::fail(
          "thread invariance: sample " + std::to_string(i) +
          " differs between 1 and 3 threads");
    }
  }
  if (serial.decode.bits != parallel.decode.bits ||
      serial.decode.slot_amplitudes != parallel.decode.slot_amplitudes) {
    return tk::OracleVerdict::fail(
        "thread invariance: decode differs between 1 and 3 threads");
  }
  return tk::OracleVerdict::pass();
}

/// Weather monotonicity: clearing the fog from a scenario must not make
/// the read worse. Same drive, same noise streams; only the propagation
/// changes. One bit of slack absorbs threshold-edge flips; a >= 2 bit
/// improvement under heavier weather is an attenuation-model inversion.
tk::OracleVerdict check_weather_monotonicity(const tk::Scenario& s) {
  tk::Scenario clear = s;
  clear.weather = 0;
  ros::pipeline::DecodeDriveResult foggy;
  if (auto v = run_decode_oracles(s, &foggy); !v.ok) return v;
  ros::pipeline::DecodeDriveResult clear_r;
  if (auto v = run_decode_oracles(clear, &clear_r); !v.ok) return v;

  if (foggy.mean_rss_dbm > clear_r.mean_rss_dbm + 0.5) {
    std::ostringstream os;
    os << "weather monotonicity: mean RSS rose from "
       << clear_r.mean_rss_dbm << " dBm (clear) to " << foggy.mean_rss_dbm
       << " dBm under weather " << s.weather;
    return tk::OracleVerdict::fail(os.str());
  }
  const auto truth = s.bit_vector();
  const int e_clear = count_bit_errors(clear_r.decode.bits, truth);
  const int e_foggy = count_bit_errors(foggy.decode.bits, truth);
  if (e_foggy < e_clear - 1) {
    return tk::OracleVerdict::fail(
        "weather monotonicity: " + std::to_string(e_clear) +
        " bit errors in clear air but only " + std::to_string(e_foggy) +
        " under weather " + std::to_string(s.weather));
  }
  return tk::OracleVerdict::pass();
}

/// Pipeline differential oracle: decode_drive (the parallel block
/// driver) and a frame-by-frame engine must both reproduce the serial
/// layer-call reference (tests/support/pipeline_oracle.hpp)
/// BIT-identically on every scenario the fuzzer can construct, including
/// the degenerate few-frame passes case 13 of mutate() generates.
tk::OracleVerdict check_streaming_equivalence(const tk::Scenario& s) {
  const auto scene = s.make_scene(&stackup());
  const auto drive = s.make_drive();
  const auto config = s.make_config();
  const auto reference =
      ros::testoracle::decode_drive(scene, drive, {0.0, 0.0}, config);
  const auto parallel =
      ros::pipeline::decode_drive(scene, drive, {0.0, 0.0}, config);
  std::string err = ros::teststream::diff_decode_drive(parallel, reference);
  if (!err.empty()) {
    return tk::OracleVerdict::fail("pipeline equivalence: decode_drive " +
                                   err);
  }
  ros::pipeline::StreamingInterrogator engine(
      config, scene, drive, ros::scene::Vec2{0.0, 0.0});
  for (std::size_t i = 0; i < engine.n_frames(); ++i) engine.push_frame(i);
  err = ros::teststream::diff_decode_drive(engine.finalize_decode(),
                                           reference);
  if (!err.empty()) {
    return tk::OracleVerdict::fail("pipeline equivalence: engine " + err);
  }
  return tk::OracleVerdict::pass();
}

/// Corridor scenario generator: a random little road segment — 1-3 tag
/// installations with random payloads, spans, and placements, crossed
/// by a handful of vehicles with random speeds and spawn cadence. Every
/// draw comes from the caller's stream, so a failing corridor replays
/// from (--seed, run index) alone.
ros::corridor::CorridorSpec random_corridor_spec(Rng& rng) {
  namespace rc = ros::corridor;
  rc::CorridorSpec spec;
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  const int n_tags = rng.uniform_int(1, 3);
  double x = 0.0;
  for (int t = 0; t < n_tags; ++t) {
    rc::TagSpec tag;
    tag.capture_half_span_m = rng.uniform(1.2, 2.5);
    x += tag.capture_half_span_m + rng.uniform(0.5, 3.0);
    tag.position_m = x;
    tag.bits.clear();
    for (int k = 0; k < 4; ++k) {
      tag.bits.push_back(rng.uniform_int(0, 1) == 1);
    }
    x += tag.capture_half_span_m;
    spec.tags.push_back(tag);
  }
  spec.segment_length_m = x + 1.0;
  spec.traffic.n_vehicles =
      static_cast<std::size_t>(rng.uniform_int(2, 5));
  spec.traffic.headway_s = rng.uniform(0.2, 1.0);
  spec.traffic.headway_jitter_s = rng.uniform(0.0, 0.2);
  spec.traffic.min_speed_mps = rng.uniform(1.5, 2.0);
  spec.traffic.max_speed_mps =
      spec.traffic.min_speed_mps + rng.uniform(0.2, 0.8);
  spec.config.frame_stride = rng.uniform_int(30, 80);
  spec.tick_s = rng.uniform(0.02, 0.1);
  return spec;
}

/// Corridor differential oracle: every readout of a random corridor
/// must equal the same (vehicle, tag) session run standalone through
/// the batch decode_drive — the fleet engine's fidelity law, probed
/// over random geometry instead of the tests' fixed specs.
tk::OracleVerdict check_corridor_equivalence(Rng& rng) {
  namespace rc = ros::corridor;
  const rc::CorridorSpec spec = random_corridor_spec(rng);
  const rc::CorridorResult result = rc::run_corridor(spec);
  const auto plans = rc::plan_sessions(spec);
  if (result.reads.size() != plans.size()) {
    return tk::OracleVerdict::fail(
        "corridor equivalence: " + std::to_string(result.reads.size()) +
        " reads for " + std::to_string(plans.size()) + " plans");
  }
  for (std::size_t p = 0; p < plans.size(); ++p) {
    if (!result.reads[p].completed) {
      return tk::OracleVerdict::fail(
          "corridor equivalence: read " + std::to_string(p) +
          " never finalized");
    }
    if (!rc::same_read(result.reads[p].result,
                       rc::standalone_read(spec, plans[p]))) {
      std::ostringstream os;
      os << "corridor equivalence: read " << p << " (vehicle "
         << plans[p].vehicle_id << ", tag " << plans[p].tag_index
         << ", corridor seed " << spec.seed << ", "
         << spec.traffic.n_vehicles << " vehicles, stride "
         << spec.config.frame_stride
         << ") diverged from standalone decode_drive";
      return tk::OracleVerdict::fail(os.str());
    }
  }
  return tk::OracleVerdict::pass();
}

/// Full oracle battery for one scenario. `thorough` adds the expensive
/// differential checks (full report, thread invariance, weather).
tk::OracleVerdict run_all_oracles(const tk::Scenario& s, bool thorough,
                                  std::uint64_t* signature) {
  try {
    ros::pipeline::DecodeDriveResult result;
    if (auto v = run_decode_oracles(s, &result); !v.ok) return v;
    if (signature != nullptr) {
      *signature = tk::behavior_signature(result, s);
    }
    if (auto v = check_streaming_equivalence(s); !v.ok) return v;
    if (thorough) {
      ros::pipeline::InterrogationReport report;
      if (auto v = run_report_oracles(s, &report); !v.ok) return v;
      if (signature != nullptr) {
        *signature ^= tk::behavior_signature(report, s);
      }
      if (auto v = check_thread_invariance(s); !v.ok) return v;
      if (s.weather > 0) {
        if (auto v = check_weather_monotonicity(s); !v.ok) return v;
      }
    }
  } catch (const std::exception& e) {
    return tk::OracleVerdict::fail(
        std::string("pipeline threw on a sanitized scenario: ") + e.what());
  }
  return tk::OracleVerdict::pass();
}

std::vector<tk::Scenario> load_corpus(const std::string& dir) {
  std::vector<tk::Scenario> corpus;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());  // deterministic order
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    corpus.push_back(tk::Scenario::parse(buf.str()));
  }
  if (corpus.empty()) corpus.push_back(tk::Scenario{});
  return corpus;
}

std::string save_failure(const std::string& dir, const tk::Scenario& s) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::uint64_t h =
      ros::common::splitmix64(std::hash<std::string>{}(s.encode()));
  std::ostringstream name;
  name << dir << "/crash-" << std::hex << h << ".scenario";
  std::ofstream out(name.str());
  out << s.encode();
  return name.str();
}

/// Decode forensics for a failed scenario: re-run the decode pass with
/// the provenance probe armed and the scenario attached as context, so
/// the failure ships as a self-contained read bundle (stage artifacts,
/// funnel verdicts, replayable via `rostriage replay`) next to the
/// .scenario file. Returns the bundle path, or "" when the rerun could
/// not produce one. The rerun is the same deterministic pipeline the
/// oracle already executed, so this costs one extra decode pass only on
/// the (rare) failure path.
std::string capture_failure_bundle(const tk::Scenario& s) {
  namespace probe = ros::obs::probe;
  const probe::Mode saved = probe::mode();
  probe::set_mode(probe::Mode::always);
  probe::set_sample_period(1);
  probe::set_context(s.encode(), s.bit_vector());
  std::string path;
  try {
    run_decode_oracles(s);
    path = probe::last_bundle_path();
  } catch (const std::exception& e) {
    // The pipeline died mid-read: persist whatever the probe captured
    // up to the throw as a partial bundle.
    path = probe::abort_read(std::string("fuzz_exception: ") + e.what());
  }
  probe::clear_context();
  probe::set_mode(saved);
  return path;
}

int replay(const Options& opt) {
  std::ifstream in(opt.replay_file);
  if (!in) {
    std::cerr << "roztest: cannot open " << opt.replay_file << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto s = tk::Scenario::parse(buf.str());
  const auto verdict = run_all_oracles(s, /*thorough=*/true, nullptr);
  if (!verdict.ok) {
    std::cout << "FAIL " << opt.replay_file << ": " << verdict.failure
              << "\n";
    if (const auto bundle = capture_failure_bundle(s); !bundle.empty()) {
      std::cout << "  provenance bundle " << bundle << "\n";
    }
    return 1;
  }
  std::cout << "OK " << opt.replay_file << "\n";
  return 0;
}

int fuzz(const Options& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  std::vector<tk::Scenario> corpus = load_corpus(opt.corpus_dir);
  const std::size_t n_seeds = corpus.size();
  std::unordered_set<std::uint64_t> signatures;
  const std::string save_dir =
      opt.save_dir.empty() ? opt.corpus_dir : opt.save_dir;

  // Pre-seed coverage with the corpus itself (cheap checks only).
  for (const auto& s : corpus) {
    std::uint64_t sig = 0;
    const auto verdict = run_all_oracles(s, /*thorough=*/false, &sig);
    if (!verdict.ok) {
      std::cout << "FAIL (corpus): " << verdict.failure << "\n"
                << s.encode();
      if (const auto bundle = capture_failure_bundle(s); !bundle.empty()) {
        std::cout << "  provenance bundle " << bundle << "\n";
      }
      return 1;
    }
    signatures.insert(sig);
  }

  int failures = 0;
  int runs_done = 0;
  for (int r = 0; r < opt.runs; ++r) {
    if (elapsed_s() > opt.max_seconds) break;
    Rng rng(derive_stream_seed(opt.seed, static_cast<std::uint64_t>(r)));
    const auto& parent = corpus[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<int>(corpus.size()) - 1))];
    const tk::Scenario s = tk::mutate(parent, rng);
    const bool thorough = r % 16 == 0;

    std::uint64_t sig = 0;
    const auto verdict = run_all_oracles(s, thorough, &sig);
    ++runs_done;
    if (!verdict.ok) {
      ++failures;
      const auto path = save_failure(save_dir, s);
      std::cout << "FAIL run " << r << " (seed 0x" << std::hex << opt.seed
                << std::dec << "): " << verdict.failure << "\n  saved "
                << path << "\n";
      if (const auto bundle = capture_failure_bundle(s); !bundle.empty()) {
        std::cout << "  provenance bundle " << bundle << "\n";
      }
      continue;
    }
    if (signatures.insert(sig).second) {
      corpus.push_back(s);  // new behavior bucket: keep for mutation
    }
    if (thorough) {
      // Corridor differential: random fleet geometry, every readout
      // checked against standalone decode_drive. Replays from the same
      // --seed and run index (no file needed — the spec is pure RNG).
      Rng crng(derive_stream_seed(
          derive_stream_seed(opt.seed, 0xC0221D02ull),
          static_cast<std::uint64_t>(r)));
      if (const auto cv = check_corridor_equivalence(crng); !cv.ok) {
        ++failures;
        std::cout << "FAIL run " << r << " (seed 0x" << std::hex
                  << opt.seed << std::dec << "): " << cv.failure
                  << "\n  replay: roztest --runs " << r + 1 << " --seed 0x"
                  << std::hex << opt.seed << std::dec << "\n";
      }
    }
  }

  std::cout << "roztest: " << runs_done << " runs, "
            << signatures.size() << " behavior buckets, corpus "
            << n_seeds << " seed + " << corpus.size() - n_seeds
            << " grown, " << failures << " failures, "
            << static_cast<int>(elapsed_s()) << " s (seed 0x" << std::hex
            << opt.seed << std::dec << ")\n";
  return failures == 0 ? 0 : 1;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--runs") {
      if (const char* v = next()) opt.runs = std::atoi(v);
    } else if (arg == "--max-seconds") {
      if (const char* v = next()) opt.max_seconds = std::atof(v);
    } else if (arg == "--seed") {
      if (const char* v = next()) {
        opt.seed = std::strtoull(v, nullptr, 0);
      }
    } else if (arg == "--corpus") {
      if (const char* v = next()) opt.corpus_dir = v;
    } else if (arg == "--save") {
      if (const char* v = next()) opt.save_dir = v;
    } else if (arg == "--replay") {
      if (const char* v = next()) opt.replay_file = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: roztest [--runs N] [--max-seconds S] "
                   "[--seed S] [--corpus DIR] [--save DIR] "
                   "[--replay FILE]\n";
      return std::nullopt;
    } else {
      std::cerr << "roztest: unknown argument " << arg << "\n";
      return std::nullopt;
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep fuzz output readable: the pipeline's info/debug logs are noise
  // at hundreds of runs; warnings and errors still come through.
  ros::obs::set_log_level(ros::obs::LogLevel::error);
  const auto opt = parse_args(argc, argv);
  if (!opt) return 2;
  if (!opt->replay_file.empty()) return replay(*opt);
  return fuzz(*opt);
}
