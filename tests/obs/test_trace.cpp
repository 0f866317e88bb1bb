// Trace-JSON round trip: emit nested spans through ScopedTimer, flush
// the Chrome trace file, re-parse it with a minimal JSON reader, and
// check event fields and nesting.
#include "ros/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "ros/obs/alloc.hpp"
#include "ros/obs/timer.hpp"

namespace obs = ros::obs;

namespace {

// --- A deliberately tiny JSON reader, just enough for trace files. ---

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;
  const JsonValue& at(const std::string& key) const {
    return std::get<JsonObject>(v).at(key);
  }
  double num() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  const JsonArray& arr() const { return std::get<JsonArray>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage in JSON";
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void expect(char c) {
    EXPECT_EQ(peek(), c);
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue{parse_string()};
      case 't': pos_ += 4; return JsonValue{true};
      case 'f': pos_ += 5; return JsonValue{false};
      case 'n': pos_ += 4; return JsonValue{nullptr};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    if (peek() == '}') { ++pos_; return JsonValue{std::move(obj)}; }
    while (true) {
      std::string key = parse_string();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      break;
    }
    return JsonValue{std::move(obj)};
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    if (peek() == ']') { ++pos_; return JsonValue{std::move(arr)}; }
    while (true) {
      arr.push_back(parse_value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      break;
    }
    return JsonValue{std::move(arr)};
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char e = text_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': out += '?'; pos_ += 4; break;
          default: out += e;
        }
      } else {
        out += c;
      }
    }
    EXPECT_LT(pos_, text_.size()) << "unterminated string";
    if (pos_ < text_.size()) ++pos_;
    return out;
  }

  JsonValue parse_number() {
    skip_ws();
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    const double d = std::stod(std::string(text_.substr(pos_, end - pos_)));
    pos_ = end;
    return JsonValue{d};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string temp_trace_path() {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "ros_trace_" + info->name() + ".json";
}

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::TraceExporter::global().disable();
  }
};

}  // namespace

TEST_F(TraceTest, DisabledExporterRecordsNothing) {
  auto& exporter = obs::TraceExporter::global();
  exporter.disable();
  const std::size_t before = exporter.event_count();
  { obs::ScopedTimer t("noop", "test"); }
  EXPECT_EQ(exporter.event_count(), before);
}

TEST_F(TraceTest, DisabledSpanDoesNotAllocate) {
  if (!obs::alloc_counting_enabled()) {
    GTEST_SKIP() << "ROS_OBS_COUNT_ALLOCS is off";
  }
  auto& exporter = obs::TraceExporter::global();
  exporter.disable();
  // Longer than any small-string buffer: a span that copied its name
  // would allocate here.
  const auto before = obs::thread_alloc_counters();
  { obs::ScopedTimer t("pipeline.a_long_span_name", "pipeline"); }
  EXPECT_EQ(obs::thread_alloc_counters().allocs, before.allocs);
}

TEST_F(TraceTest, RoundTripPreservesEventsAndNesting) {
  const std::string path = temp_trace_path();
  auto& exporter = obs::TraceExporter::global();
  exporter.enable(path);

  {
    obs::ScopedTimer outer("outer", "test");
    {
      obs::ScopedTimer inner("inner", "test");
      // Ensure a measurable, strictly-contained inner span.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread([&] {
    obs::ScopedTimer t("worker", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }).join();

  ASSERT_EQ(exporter.event_count(), 3u);
  ASSERT_TRUE(exporter.flush());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue root = JsonParser(buf.str()).parse();

  const JsonArray& events = root.at("traceEvents").arr();
  ASSERT_EQ(events.size(), 3u);

  std::map<std::string, const JsonValue*> by_name;
  for (const JsonValue& ev : events) {
    EXPECT_EQ(ev.at("ph").str(), "X");
    EXPECT_EQ(ev.at("cat").str(), "test");
    EXPECT_GE(ev.at("dur").num(), 0.0);
    by_name[ev.at("name").str()] = &ev;
  }
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner"));
  ASSERT_TRUE(by_name.count("worker"));

  // Nesting: inner's [ts, ts+dur) lies inside outer's on the same track.
  const auto& outer = *by_name["outer"];
  const auto& inner = *by_name["inner"];
  EXPECT_EQ(outer.at("tid").num(), inner.at("tid").num());
  EXPECT_GE(inner.at("ts").num(), outer.at("ts").num());
  EXPECT_LE(inner.at("ts").num() + inner.at("dur").num(),
            outer.at("ts").num() + outer.at("dur").num());
  EXPECT_LT(inner.at("dur").num(), outer.at("dur").num());

  // The worker thread landed on its own track.
  EXPECT_NE(by_name["worker"]->at("tid").num(), outer.at("tid").num());

  std::remove(path.c_str());
}

TEST_F(TraceTest, EnableResetsBufferButNotClock) {
  auto& exporter = obs::TraceExporter::global();
  exporter.enable(temp_trace_path());
  { obs::ScopedTimer t("first", "test"); }
  EXPECT_EQ(exporter.event_count(), 1u);

  const std::int64_t before_us = obs::TraceExporter::now_us();
  exporter.enable(temp_trace_path());  // retarget = fresh session
  EXPECT_EQ(exporter.event_count(), 0u);
  // One process-epoch clock: a new session never moves time backwards.
  EXPECT_GE(obs::TraceExporter::now_us(), before_us);
}

TEST_F(TraceTest, FlushWithoutSessionFails) {
  auto& exporter = obs::TraceExporter::global();
  exporter.disable();
  EXPECT_FALSE(exporter.flush());
}

namespace {

JsonValue parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return JsonParser(buf.str()).parse();
}

}  // namespace

TEST_F(TraceTest, FileIsValidJsonAfterEveryFlushWhileStillEnabled) {
  // The abnormal-exit guarantee: the on-disk file must be a complete
  // JSON document after each incremental flush, with no disable() or
  // process exit needed to close the array.
  const std::string path = temp_trace_path();
  auto& exporter = obs::TraceExporter::global();
  exporter.enable(path);

  { obs::ScopedTimer t("batch1", "test"); }
  ASSERT_TRUE(exporter.flush());
  const JsonValue first = parse_trace_file(path);
  ASSERT_EQ(first.at("traceEvents").arr().size(), 1u);
  EXPECT_EQ(first.at("traceEvents").arr()[0].at("name").str(), "batch1");

  // A second flush appends into the same array, rewriting only the
  // closing suffix — earlier events must survive byte-for-byte.
  { obs::ScopedTimer t("batch2", "test"); }
  { obs::ScopedTimer t("batch3", "test"); }
  ASSERT_TRUE(exporter.flush());
  const JsonValue second = parse_trace_file(path);
  const JsonArray& events = second.at("traceEvents").arr();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("name").str(), "batch1");
  EXPECT_EQ(events[2].at("name").str(), "batch3");

  // An empty flush (nothing pending) must not corrupt the file either.
  ASSERT_TRUE(exporter.flush());
  EXPECT_EQ(parse_trace_file(path).at("traceEvents").arr().size(), 3u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, LargeSessionsSpillToDiskAutomatically) {
  // Recording past the in-memory batch threshold must spill to disk on
  // its own (bounded memory) and still leave a parseable document.
  const std::string path = temp_trace_path();
  auto& exporter = obs::TraceExporter::global();
  exporter.enable(path);
  constexpr int kEvents = 300;  // past the 256-event spill batch
  for (int k = 0; k < kEvents; ++k) {
    obs::ScopedTimer t("spill", "test");
  }
  // Before any explicit flush, the auto-spilled prefix already parses.
  const JsonValue mid = parse_trace_file(path);
  EXPECT_GE(mid.at("traceEvents").arr().size(), 256u);
  ASSERT_TRUE(exporter.flush());
  EXPECT_EQ(parse_trace_file(path).at("traceEvents").arr().size(),
            static_cast<std::size_t>(kEvents));
  std::remove(path.c_str());
}

TEST_F(TraceTest, CrashFinalizeLeavesValidFile) {
  // crash_finalize is the signal-handler path: best-effort, noexcept,
  // and must leave a closed, parseable document behind.
  const std::string path = temp_trace_path();
  auto& exporter = obs::TraceExporter::global();
  exporter.enable(path);
  { obs::ScopedTimer t("doomed", "test"); }
  exporter.crash_finalize();
  const JsonValue root = parse_trace_file(path);
  ASSERT_EQ(root.at("traceEvents").arr().size(), 1u);
  EXPECT_EQ(root.at("traceEvents").arr()[0].at("name").str(), "doomed");
  std::remove(path.c_str());
}
