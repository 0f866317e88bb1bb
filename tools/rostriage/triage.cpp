#include "triage.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ros/em/material.hpp"
#include "ros/exec/thread_pool.hpp"
#include "ros/obs/json_parse.hpp"
#include "ros/obs/probe.hpp"
#include "ros/pipeline/interrogator.hpp"
#include "ros/pipeline/provenance.hpp"
#include "ros/simd/simd.hpp"
#include "ros/testkit/scenario.hpp"

namespace ros::triage {

namespace {

namespace probe = ros::obs::probe;
using ros::obs::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("rostriage: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<bool> parse_bits(const JsonValue* v) {
  std::vector<bool> bits;
  if (v == nullptr || !v->is_array()) return bits;
  bits.reserve(v->array.size());
  for (const JsonValue& b : v->array) bits.push_back(b.bool_or(false));
  return bits;
}

std::string bits_to_string(const std::vector<bool>& bits) {
  if (bits.empty()) return "(none)";
  std::string s;
  s.reserve(bits.size());
  for (const bool b : bits) s.push_back(b ? '1' : '0');
  return s;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string digest_hex(std::uint64_t digest) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return hex;
}

/// Restores probe mode + context, pool width and simd backend no matter
/// how the replayed pipeline exits.
struct RuntimeGuard {
  probe::Mode saved_mode = probe::mode();
  std::size_t saved_threads = ros::exec::ThreadPool::global().threads();
  ros::simd::Backend saved_backend = ros::simd::active_backend();
  bool threads_changed = false;
  bool backend_changed = false;

  ~RuntimeGuard() {
    probe::set_mode(saved_mode);
    probe::clear_context();
    if (threads_changed) {
      ros::exec::ThreadPool::set_global_threads(saved_threads);
    }
    if (backend_changed) ros::simd::set_backend(saved_backend);
  }
};

/// The annotations the pipeline stamps about the runtime that produced
/// the bundle. Expected to differ between e.g. a scalar and an AVX2
/// capture of the same read, so diff reports them but they do not count
/// against bundle identity.
bool is_runtime_annotation(std::string_view key) {
  return key == "threads" || key == "simd_backend";
}

struct NumericDiff {
  std::size_t compared = 0;
  std::size_t differing = 0;
  double max_abs = 0.0;
  std::vector<std::string> first_diffs;  ///< "path: a vs b", capped

  void note(const std::string& path, const std::string& a,
            const std::string& b) {
    ++differing;
    if (first_diffs.size() < 8) {
      first_diffs.push_back(path + ": " + a + " vs " + b);
    }
  }
};

/// Structural + numeric comparison of two parsed JSON values. Numbers
/// are compared exactly: both sides round-tripped through the same
/// %.12g serialization, so bit-identical captures compare equal.
void diff_json(const JsonValue& a, const JsonValue& b,
               const std::string& path, NumericDiff& out) {
  if (a.type != b.type) {
    out.note(path, "<type>", "<type>");
    return;
  }
  switch (a.type) {
    case JsonValue::Type::number:
      ++out.compared;
      if (a.number != b.number) {
        out.max_abs =
            std::max(out.max_abs, std::fabs(a.number - b.number));
        out.note(path, fmt(a.number), fmt(b.number));
      }
      break;
    case JsonValue::Type::boolean:
      if (a.boolean != b.boolean) {
        out.note(path, a.boolean ? "true" : "false",
                 b.boolean ? "true" : "false");
      }
      break;
    case JsonValue::Type::string:
      if (a.string != b.string) out.note(path, a.string, b.string);
      break;
    case JsonValue::Type::array: {
      if (a.array.size() != b.array.size()) {
        out.note(path + ".length", std::to_string(a.array.size()),
                 std::to_string(b.array.size()));
        return;
      }
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        diff_json(a.array[i], b.array[i],
                  path + "[" + std::to_string(i) + "]", out);
      }
      break;
    }
    case JsonValue::Type::object: {
      for (const auto& [k, va] : a.object) {
        const JsonValue* vb = b.find(k);
        if (vb == nullptr) {
          out.note(path + "." + k, "<present>", "<absent>");
          continue;
        }
        diff_json(va, *vb, path + "." + k, out);
      }
      for (const auto& [k, vb] : b.object) {
        if (a.find(k) == nullptr) {
          out.note(path + "." + k, "<absent>", "<present>");
        }
      }
      break;
    }
    case JsonValue::Type::null:
      break;
  }
}

/// One row of " .:-=+*#%@"-graded sparkline for an amplitude array.
std::string sparkline(const std::vector<double>& v, std::size_t width) {
  static const char levels[] = " .:-=+*#%@";
  if (v.empty()) return "(empty)";
  double lo = v.front();
  double hi = v.front();
  for (const double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  const std::size_t n = std::min(width, v.size());
  std::string out;
  out.reserve(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Max over the bucket this column covers, so narrow peaks survive.
    const std::size_t b0 = col * v.size() / n;
    const std::size_t b1 = std::max(b0 + 1, (col + 1) * v.size() / n);
    double peak = v[b0];
    for (std::size_t i = b0; i < b1 && i < v.size(); ++i) {
      peak = std::max(peak, v[i]);
    }
    const double t = (peak - lo) / span;
    const int idx = static_cast<int>(t * 9.0 + 0.5);
    out.push_back(levels[std::clamp(idx, 0, 9)]);
  }
  return out;
}

std::vector<double> numbers_of(const JsonValue* v) {
  std::vector<double> out;
  if (v == nullptr || !v->is_array()) return out;
  out.reserve(v->array.size());
  for (const JsonValue& x : v->array) out.push_back(x.number_or(0.0));
  return out;
}

double number_at(const JsonValue& v, const char* key,
                 double fallback = 0.0) {
  const JsonValue* n = v.find(key);
  return n != nullptr ? n->number_or(fallback) : fallback;
}

void render_bit_margins(std::ostringstream& out, const JsonValue& m) {
  out << "  threshold " << fmt(number_at(m, "threshold"))
      << "  min_modulation " << fmt(number_at(m, "min_modulation"))
      << "  band_rms " << fmt(number_at(m, "band_rms")) << "\n";
  const JsonValue* slots = m.find("slots");
  if (slots == nullptr || !slots->is_array()) return;
  out << "  slot  spacing_l  amplitude  modulation     margin  bit\n";
  for (const JsonValue& s : slots->array) {
    const JsonValue* bit = s.find("bit");
    char line[160];
    std::snprintf(
        line, sizeof(line), "  %4.0f  %9.4f  %9.4f  %10.4f  %+9.4f  %3d\n",
        number_at(s, "slot"), number_at(s, "spacing_lambda"),
        number_at(s, "amplitude"), number_at(s, "modulation"),
        number_at(s, "margin"),
        bit != nullptr && bit->bool_or(false) ? 1 : 0);
    out << line;
  }
}

void render_spectrum(std::ostringstream& out, const JsonValue& sp) {
  const std::vector<double> amp = numbers_of(sp.find("amplitude"));
  const std::vector<double> spacing = numbers_of(sp.find("spacing_lambda"));
  if (amp.empty()) return;
  double lo = amp.front();
  double hi = amp.front();
  for (const double a : amp) {
    lo = std::min(lo, a);
    hi = std::max(hi, a);
  }
  out << "  amplitude [" << fmt(lo) << ", " << fmt(hi) << "] over "
      << amp.size() << " bins";
  if (!spacing.empty()) {
    out << ", spacing " << fmt(spacing.front()) << ".."
        << fmt(spacing.back()) << " lambda";
  }
  out << "\n  |" << sparkline(amp, 72) << "|\n";
}

/// Summarize one stage artifact in a line: its scalar counts, or the
/// truncation note the probe substituted for an oversized capture.
std::string stage_summary(const JsonValue& v) {
  if (const JsonValue* t = v.find("truncated");
      t != nullptr && t->bool_or(false)) {
    return "(truncated: " +
           std::to_string(static_cast<long long>(number_at(v, "bytes"))) +
           " bytes > limit)";
  }
  std::string s;
  for (const char* key : {"n_samples", "n_points", "n_clusters",
                          "n_candidates", "n_frames", "n_bins",
                          "fft_size"}) {
    if (const JsonValue* n = v.find(key); n != nullptr && n->is_number()) {
      if (!s.empty()) s += ", ";
      s += std::string(key) + "=" +
           std::to_string(static_cast<long long>(n->number));
    }
  }
  return s.empty() ? "(object)" : s;
}

struct ScenarioRun {
  std::vector<bool> bits;
  std::string bundle_path;
};

/// Run one read of `s` with the probe armed in always mode and the
/// scenario attached as context, returning the decoded bits and the
/// bundle the pipeline wrote. `full_run` uses Interrogator::run (kind
/// "interrogate"); otherwise decode_drive at `tag`.
ScenarioRun run_captured(const ros::testkit::Scenario& s,
                         bool full_run, ros::scene::Vec2 tag) {
  const auto stackup = ros::em::StriplineStackup::ros_default();
  const auto scene = s.make_scene(&stackup);
  const std::uint64_t before = probe::bundles_written();
  probe::set_mode(probe::Mode::always);
  probe::set_sample_period(1);
  probe::set_context(s.encode(), s.bit_vector());
  ScenarioRun out;
  if (full_run) {
    const ros::pipeline::Interrogator inter(s.make_config());
    const auto report = inter.run(scene, s.make_drive());
    if (!report.tags.empty()) out.bits = report.tags.front().decode.bits;
  } else {
    const auto result = ros::pipeline::decode_drive(
        scene, s.make_drive(), tag, s.make_config());
    out.bits = result.decode.bits;
  }
  if (probe::bundles_written() == before) {
    throw std::runtime_error(
        "rostriage: pipeline wrote no bundle (is " +
        probe::reads_dir() + " writable?)");
  }
  out.bundle_path = probe::last_bundle_path();
  return out;
}

}  // namespace

std::string Bundle::kind() const {
  const JsonValue* v = doc.find("kind");
  return std::string(v != nullptr ? v->string_or("") : "");
}

std::string Bundle::reason() const {
  const JsonValue* v = doc.find("reason");
  return std::string(v != nullptr ? v->string_or("") : "");
}

std::string Bundle::digest() const {
  const JsonValue* v = doc.at("config", "digest");
  return std::string(v != nullptr ? v->string_or("") : "");
}

std::uint64_t Bundle::noise_seed() const {
  const JsonValue* v = doc.at("config", "noise_seed");
  return v != nullptr ? static_cast<std::uint64_t>(v->number_or(0)) : 0;
}

bool Bundle::has_scenario() const {
  const JsonValue* v = doc.find("scenario");
  return v != nullptr && v->is_string();
}

std::string Bundle::scenario_text() const {
  const JsonValue* v = doc.find("scenario");
  return std::string(v != nullptr ? v->string_or("") : "");
}

std::vector<bool> Bundle::expected_bits() const {
  return parse_bits(doc.find("expected_bits"));
}

std::vector<bool> Bundle::decoded_bits() const {
  return parse_bits(doc.find("decoded_bits"));
}

bool Bundle::has_decoded_bits() const {
  return doc.find("decoded_bits") != nullptr;
}

std::vector<FunnelStage> Bundle::funnel() const {
  std::vector<FunnelStage> out;
  const JsonValue* f = doc.find("funnel");
  if (f == nullptr || !f->is_array()) return out;
  out.reserve(f->array.size());
  for (const JsonValue& v : f->array) {
    FunnelStage stage;
    if (const JsonValue* s = v.find("stage")) {
      stage.stage = s->string_or("");
    }
    if (const JsonValue* p = v.find("passed")) {
      stage.passed = p->bool_or(false);
    }
    if (const JsonValue* d = v.find("detail")) {
      stage.detail = d->string_or("");
    }
    out.push_back(std::move(stage));
  }
  return out;
}

Bundle load_bundle(const std::string& path) {
  const std::string text = read_file(path);
  std::string error;
  std::optional<JsonValue> doc = ros::obs::json_parse(text, &error);
  if (!doc.has_value()) {
    throw std::runtime_error("rostriage: " + path +
                             " is not valid JSON: " + error);
  }
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr ||
      schema->string_or("") != "ros-read-provenance-v1") {
    throw std::runtime_error(
        "rostriage: " + path +
        " is not a ros-read-provenance-v1 bundle (schema: \"" +
        std::string(schema != nullptr ? schema->string_or("?") : "?") +
        "\")");
  }
  Bundle b;
  b.path = path;
  b.doc = std::move(*doc);
  return b;
}

std::string report(const Bundle& bundle) {
  std::ostringstream out;
  const JsonValue& doc = bundle.doc;
  out << "bundle    " << bundle.path << "\n";
  out << "read      kind=" << bundle.kind()
      << "  reason=" << bundle.reason();
  if (const JsonValue* m = doc.find("bit_mismatch");
      m != nullptr && m->bool_or(false)) {
    out << "  BIT-MISMATCH";
  }
  out << "\n";
  if (const JsonValue* t = doc.find("t_iso")) {
    out << "when      " << t->string_or("?") << "\n";
  }
  if (const JsonValue* sha = doc.at("build", "git_sha")) {
    const JsonValue* bt = doc.at("build", "build_type");
    out << "build     " << sha->string_or("?") << " ("
        << (bt != nullptr ? bt->string_or("?") : "?") << ")\n";
  }
  out << "config    digest=" << bundle.digest() << "  noise_seed="
      << static_cast<unsigned long long>(bundle.noise_seed()) << "\n";

  if (const JsonValue* a = doc.find("annotations");
      a != nullptr && a->is_object() && !a->object.empty()) {
    out << "runtime  ";
    for (const auto& [k, v] : a->object) {
      out << " " << k << "=";
      if (v.is_number()) {
        out << fmt(v.number);
      } else {
        out << v.string_or("?");
      }
    }
    out << "\n";
  }

  out << "\nfunnel (where did the read die?)\n";
  const std::vector<FunnelStage> funnel = bundle.funnel();
  if (funnel.empty()) {
    out << "  (no funnel verdicts captured)\n";
  }
  for (const FunnelStage& s : funnel) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-4s %-12s %s\n",
                  s.passed ? "ok" : "FAIL", s.stage.c_str(),
                  s.detail.c_str());
    out << line;
  }

  const std::vector<bool> expected = bundle.expected_bits();
  const std::vector<bool> decoded = bundle.decoded_bits();
  out << "\nbits\n";
  if (!expected.empty()) {
    out << "  expected  " << bits_to_string(expected) << "\n";
  }
  if (bundle.has_decoded_bits()) {
    out << "  decoded   " << bits_to_string(decoded);
    if (!expected.empty()) {
      if (decoded == expected) {
        out << "  (match)";
      } else if (decoded.empty()) {
        out << "  (no read)";
      } else {
        out << "\n  errors    ";
        for (std::size_t i = 0;
             i < std::min(decoded.size(), expected.size()); ++i) {
          out << (decoded[i] != expected[i] ? '^' : ' ');
        }
      }
    }
    out << "\n";
  } else {
    out << "  (no decode attempted)\n";
  }

  const JsonValue* stages = doc.find("stages");
  if (stages != nullptr && stages->is_object()) {
    // Per-bit margins + coding spectrum, wherever the pipeline put
    // them: decode_drive writes "bit_margins"/"coding_spectrum",
    // Interrogator::run writes "tag<i>.…" per decoded candidate.
    for (const auto& [name, v] : stages->object) {
      if (name == "bit_margins" || name.ends_with(".bit_margins")) {
        out << "\ndecision margins (" << name << ")\n";
        render_bit_margins(out, v);
      }
    }
    for (const auto& [name, v] : stages->object) {
      if (name == "coding_spectrum" ||
          name.ends_with(".coding_spectrum")) {
        out << "\ncoding-band spectrum (" << name << ")\n";
        render_spectrum(out, v);
      }
    }
    out << "\nstage artifacts\n";
    for (const auto& [name, v] : stages->object) {
      char line[256];
      std::snprintf(line, sizeof(line), "  %-28s %s\n", name.c_str(),
                    stage_summary(v).c_str());
      out << line;
    }
  }

  if (bundle.has_scenario()) {
    out << "\nreplay    rostriage replay " << bundle.path
        << "   (scenario embedded)\n";
  } else {
    out << "\nreplay    not possible: bundle has no embedded scenario\n";
  }
  return out.str();
}

ReplayResult replay(const Bundle& bundle, std::size_t threads,
                    const std::string& simd_backend) {
  ReplayResult r;
  if (!bundle.has_scenario()) {
    r.detail = "bundle has no embedded scenario; capture it with "
               "probe::set_context() / rostriage capture";
    return r;
  }
  // Each bundle kind names the entry point that produced it; replaying
  // through any other would compare incomparable funnels.
  const std::string kind = bundle.kind();
  if (kind != "decode_drive" && kind != "interrogate") {
    r.detail = "bundle kind '" + kind +
               "' cannot be replayed (expected decode_drive or "
               "interrogate)";
    return r;
  }
  // Bundles captured while a second decoder existed may name it; the
  // FFT decoder cannot reproduce their bits.
  if (const JsonValue* d = bundle.doc.at("annotations", "decoder_backend");
      d != nullptr && d->string_or("") != "fft") {
    r.detail = "bundle was captured with decoder backend '" +
               std::string(d->string_or("")) +
               "'; only the fft decoder exists, so its bits cannot be "
               "reproduced";
    return r;
  }

  const ros::testkit::Scenario s =
      ros::testkit::Scenario::parse(bundle.scenario_text());

  RuntimeGuard guard;

  // Refuse to compare against a different experiment: the scenario must
  // reproduce the exact config the bundle was captured under.
  const std::string fresh_digest =
      digest_hex(ros::pipeline::config_digest(s.make_config()));
  if (!bundle.digest().empty() && fresh_digest != bundle.digest()) {
    r.detail = "config digest mismatch: bundle " + bundle.digest() +
               " vs scenario " + fresh_digest +
               " (pipeline defaults changed since capture?)";
    return r;
  }

  if (threads > 0 &&
      threads != ros::exec::ThreadPool::global().threads()) {
    ros::exec::ThreadPool::set_global_threads(threads);
    guard.threads_changed = true;
  }
  if (!simd_backend.empty()) {
    const ros::simd::Backend b = ros::simd::parse_backend(simd_backend);
    if (!ros::simd::backend_compiled(b) ||
        !ros::simd::backend_runtime_supported(b)) {
      r.detail = "simd backend '" + simd_backend +
                 "' not available in this binary/host";
      return r;
    }
    if (b != guard.saved_backend) {
      ros::simd::set_backend(b);
      guard.backend_changed = true;
    }
  }

  // Tag position for decode_drive reads travels in the annotations.
  ros::scene::Vec2 tag{0.0, 0.0};
  if (const JsonValue* x = bundle.doc.at("annotations", "tag_x")) {
    tag.x = x->number_or(0.0);
  }
  if (const JsonValue* y = bundle.doc.at("annotations", "tag_y")) {
    tag.y = y->number_or(0.0);
  }

  ScenarioRun run;
  try {
    run = run_captured(s, kind == "interrogate", tag);
  } catch (const std::exception& e) {
    r.detail = std::string("replay run failed: ") + e.what();
    return r;
  }
  r.ran = true;
  r.bits = run.bits;
  r.bundle_path = run.bundle_path;

  // Compare through the freshly captured bundle so both sides passed
  // through identical JSON serialization: decoded bits and funnel
  // verdicts (stage, passed, detail) must reproduce exactly.
  Bundle fresh = load_bundle(run.bundle_path);
  r.funnel = fresh.funnel();
  const std::vector<FunnelStage> want = bundle.funnel();
  if (fresh.decoded_bits() != bundle.decoded_bits()) {
    r.detail = "decoded bits differ: bundle " +
               bits_to_string(bundle.decoded_bits()) + " vs replay " +
               bits_to_string(fresh.decoded_bits());
    return r;
  }
  if (r.funnel.size() != want.size()) {
    r.detail = "funnel length differs: bundle " +
               std::to_string(want.size()) + " stages vs replay " +
               std::to_string(r.funnel.size());
    return r;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (r.funnel[i].stage != want[i].stage ||
        r.funnel[i].passed != want[i].passed ||
        r.funnel[i].detail != want[i].detail) {
      r.detail = "funnel stage '" + want[i].stage + "' differs: bundle " +
                 (want[i].passed ? "ok" : "FAIL") + " [" +
                 want[i].detail + "] vs replay " +
                 (r.funnel[i].passed ? "ok" : "FAIL") + " [" +
                 r.funnel[i].detail + "]";
      return r;
    }
  }
  r.identical = true;
  r.detail = "replay reproduced " +
             std::to_string(bundle.decoded_bits().size()) +
             " decoded bits and " + std::to_string(want.size()) +
             " funnel verdicts exactly";
  return r;
}

std::string diff(const Bundle& a, const Bundle& b, bool* identical) {
  std::ostringstream out;
  bool same = true;
  const auto field = [&](const char* name, const std::string& va,
                         const std::string& vb, bool counts) {
    if (va == vb) {
      out << "  = " << name << "  " << va << "\n";
    } else {
      out << "  ! " << name << "  " << va << " vs " << vb << "\n";
      if (counts) same = false;
    }
  };
  out << "a: " << a.path << "\nb: " << b.path << "\n\n";
  field("kind   ", a.kind(), b.kind(), true);
  field("digest ", a.digest(), b.digest(), true);
  field("reason ", a.reason(), b.reason(), true);

  out << "\nfunnel\n";
  const std::vector<FunnelStage> fa = a.funnel();
  const std::vector<FunnelStage> fb = b.funnel();
  const std::size_t n = std::max(fa.size(), fb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string sa =
        i < fa.size() ? (fa[i].passed ? "ok " : "FAIL") + std::string(" ") +
                            fa[i].stage + " [" + fa[i].detail + "]"
                      : "(missing)";
    const std::string sb =
        i < fb.size() ? (fb[i].passed ? "ok " : "FAIL") + std::string(" ") +
                            fb[i].stage + " [" + fb[i].detail + "]"
                      : "(missing)";
    if (sa == sb) {
      out << "  = " << sa << "\n";
    } else {
      out << "  ! " << sa << "  vs  " << sb << "\n";
      same = false;
    }
  }

  out << "\nbits\n";
  field("decoded", bits_to_string(a.decoded_bits()),
        bits_to_string(b.decoded_bits()), true);
  field("expected", bits_to_string(a.expected_bits()),
        bits_to_string(b.expected_bits()), true);

  // Annotations: runtime ones (threads, simd backend) are reported but
  // expected to differ across captures of the same read; any other
  // annotation (mean_rss_dbm, ...) counts toward identity.
  out << "\nannotations\n";
  const JsonValue* aa = a.doc.find("annotations");
  const JsonValue* ab = b.doc.find("annotations");
  if (aa != nullptr && aa->is_object()) {
    for (const auto& [k, va] : aa->object) {
      const JsonValue* vb = ab != nullptr ? ab->find(k) : nullptr;
      NumericDiff nd;
      if (vb != nullptr) diff_json(va, *vb, k, nd);
      const bool differs = vb == nullptr || nd.differing > 0;
      const std::string sa = va.is_number()
                                 ? fmt(va.number)
                                 : std::string(va.string_or("?"));
      if (!differs) {
        out << "  = " << k << "  " << sa << "\n";
      } else {
        const std::string sb =
            vb == nullptr ? "(missing)"
            : vb->is_number() ? fmt(vb->number)
                              : std::string(vb->string_or("?"));
        out << "  ! " << k << "  " << sa << " vs " << sb
            << (is_runtime_annotation(k) ? "  (runtime, ignored)" : "")
            << "\n";
        if (!is_runtime_annotation(k)) same = false;
      }
    }
  }

  // Stage artifacts, numerically. Exact comparison: values on both
  // sides were serialized at the same 12-significant-digit precision,
  // so bit-identical captures diff clean.
  out << "\nstage artifacts\n";
  const JsonValue* sa = a.doc.find("stages");
  const JsonValue* sb = b.doc.find("stages");
  if (sa != nullptr && sa->is_object()) {
    for (const auto& [name, va] : sa->object) {
      const JsonValue* vb = sb != nullptr ? sb->find(name) : nullptr;
      if (vb == nullptr) {
        out << "  ! " << name << "  only in a\n";
        same = false;
        continue;
      }
      NumericDiff nd;
      diff_json(va, *vb, name, nd);
      if (nd.differing == 0) {
        out << "  = " << name << "  " << nd.compared
            << " values identical\n";
      } else {
        same = false;
        out << "  ! " << name << "  " << nd.differing << "/"
            << nd.compared << " values differ, max |delta| "
            << fmt(nd.max_abs) << "\n";
        for (const std::string& d : nd.first_diffs) {
          out << "      " << d << "\n";
        }
      }
    }
  }
  if (sb != nullptr && sb->is_object()) {
    for (const auto& [name, vb] : sb->object) {
      if (sa == nullptr || sa->find(name) == nullptr) {
        out << "  ! " << name << "  only in b\n";
        same = false;
      }
    }
  }

  out << "\nverdict: "
      << (same ? "bundles identical (modulo runtime annotations)"
               : "bundles DIFFER")
      << "\n";
  if (identical != nullptr) *identical = same;
  return out.str();
}

std::vector<std::string> capture(const std::string& scenario_text,
                                 bool full_run) {
  const ros::testkit::Scenario s =
      ros::testkit::Scenario::parse(scenario_text);
  RuntimeGuard guard;
  std::vector<std::string> paths;
  paths.push_back(run_captured(s, false, {0.0, 0.0}).bundle_path);
  if (full_run) {
    paths.push_back(run_captured(s, true, {0.0, 0.0}).bundle_path);
  }
  return paths;
}

}  // namespace ros::triage
