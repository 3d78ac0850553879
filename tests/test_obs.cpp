// Tests for the observability subsystem (src/obs): span pairing and
// nesting in the exported Chrome trace, counter events, metrics
// registry behavior under concurrency, JSON snapshot well-formedness
// and the TMM_LOG level parser.
//
// The trace/metrics JSON is validated with a minimal recursive-descent
// JSON parser below — if the export ever emits NaN, trailing commas or
// unescaped strings, these tests fail rather than chrome://tracing.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tmm {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, bools, null).

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", {JsonValue::kBool, true});
      case 'f': return literal("false", {JsonValue::kBool, false});
      case 'n': return literal("null", {});
      default: return number_value();
    }
  }
  JsonValue literal(const char* word, JsonValue v) {
    if (s_.compare(pos_, std::string::traits_type::length(word), word) != 0)
      throw std::runtime_error("bad literal");
    pos_ += std::string::traits_type::length(word);
    return v;
  }
  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::kObject;
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      JsonValue key = string_value();
      expect(':');
      v.object.emplace(key.str, value());
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }
  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::kArray;
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }
  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        switch (s_[pos_]) {
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'u': pos_ += 4; v.str += '?'; break;
          default: v.str += s_[pos_];
        }
      } else {
        v.str += s_[pos_];
      }
      ++pos_;
    }
    expect('"');
    return v;
  }
  JsonValue number_value() {
    skip_ws();
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E'))
      ++end;
    if (end == pos_) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue export_trace() {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  return JsonParser(os.str()).parse();
}

/// Trace state is process-global; serialize and reset around each test.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::reset_trace();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::reset_trace();
  }
};

TEST_F(ObsTraceTest, DisabledSpanLeavesNoEvents) {
  {
    obs::Span span("test.disabled");
    span.set_arg("x", 1.0);
    obs::trace_counter("test.counter", 42.0);
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const JsonValue root = export_trace();
  EXPECT_TRUE(root.at("traceEvents").array.empty());
}

TEST_F(ObsTraceTest, SpanNestingAndPairing) {
  obs::set_tracing_enabled(true);
  {
    obs::Span outer("test.outer");
    {
      obs::Span inner("test.inner");
      inner.set_arg("pins", 7.0);
    }
    {
      obs::Span inner2("test.inner2");
    }
  }
  obs::set_tracing_enabled(false);
  ASSERT_EQ(obs::trace_event_count(), 3u);

  const JsonValue root = export_trace();
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* inner2 = nullptr;
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_EQ(e.at("cat").str, "tmm");
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GE(e.at("tid").number, 1.0);
    EXPECT_GE(e.at("ts").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    const std::string& name = e.at("name").str;
    if (name == "test.outer") outer = &e;
    if (name == "test.inner") inner = &e;
    if (name == "test.inner2") inner2 = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(inner2, nullptr);

  // All on the same thread track; the inner spans' [ts, ts+dur] windows
  // must be contained in the outer's — that containment is exactly what
  // makes the viewer render them nested.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_EQ(outer->at("tid").number, inner2->at("tid").number);
  const double o_start = outer->at("ts").number;
  const double o_end = o_start + outer->at("dur").number;
  for (const JsonValue* e : {inner, inner2}) {
    const double start = e->at("ts").number;
    const double end = start + e->at("dur").number;
    EXPECT_GE(start, o_start);
    EXPECT_LE(end, o_end);
  }
  // inner2 begins after inner ended (sequential siblings).
  EXPECT_GE(inner2->at("ts").number,
            inner->at("ts").number + inner->at("dur").number);
  // The span argument survives the export.
  EXPECT_DOUBLE_EQ(inner->at("args").at("pins").number, 7.0);
}

TEST_F(ObsTraceTest, CounterEventsAndRssSample) {
  obs::set_tracing_enabled(true);
  obs::trace_counter("test.level", 3.5);
  obs::trace_rss_sample();
  obs::set_tracing_enabled(false);

  const JsonValue root = export_trace();
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  bool saw_level = false, saw_rss = false;
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.at("ph").str, "C");
    if (e.at("name").str == "test.level") {
      EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 3.5);
      saw_level = true;
    }
    if (e.at("name").str == "rss_mb") {
      EXPECT_GT(e.at("args").at("value").number, 0.0);
      saw_rss = true;
    }
  }
  EXPECT_TRUE(saw_level);
  EXPECT_TRUE(saw_rss);
}

TEST_F(ObsTraceTest, MultiThreadedSpansGetDistinctTracks) {
  obs::set_tracing_enabled(true);
  std::thread t([] { obs::Span span("test.worker"); });
  t.join();
  {
    obs::Span span("test.main");
  }
  obs::set_tracing_enabled(false);

  const JsonValue root = export_trace();
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].at("tid").number, events[1].at("tid").number);
}

TEST_F(ObsTraceTest, ResetDropsBufferedEvents) {
  obs::set_tracing_enabled(true);
  { obs::Span span("test.reset"); }
  EXPECT_EQ(obs::trace_event_count(), 1u);
  obs::reset_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

std::vector<std::string> names_of(const std::vector<obs::SpanTotal>& totals) {
  std::vector<std::string> names;
  for (const obs::SpanTotal& t : totals) {
    EXPECT_GE(t.seconds, 0.0) << t.name;
    names.push_back(t.name);
  }
  return names;
}

// The spans here all start within a few microseconds of each other, so
// only the recorded depth tells a parent from its children.
TEST_F(ObsTraceTest, ClosedChildrenAreTheDirectChildrenSummedByName) {
  obs::set_tracing_enabled(true);
  {
    obs::Span earlier("test.root");
    obs::Span earlier_child("test.earlier");
  }
  obs::Span root("test.root");
  {
    obs::Span a("test.a");
    obs::Span deep("test.deep");
    EXPECT_EQ(names_of(a.closed_children()), std::vector<std::string>{});
  }
  { obs::Span b("test.b"); }
  obs::trace_counter("test.level", 1.0);
  { obs::Span a("test.a"); }
  const std::vector<obs::SpanTotal> kids = root.closed_children();
  EXPECT_EQ(names_of(kids), (std::vector<std::string>{"test.a", "test.b"}));

  obs::set_tracing_enabled(false);
  EXPECT_TRUE(root.closed_children().empty());
}

TEST_F(ObsTraceTest, ClosedChildrenOfAnUntracedSpanAreEmpty) {
  obs::Span root("test.root");
  obs::set_tracing_enabled(true);
  { obs::Span child("test.child"); }
  EXPECT_TRUE(root.closed_children().empty());
  EXPECT_EQ(obs::trace_event_count(), 1u);
}

TEST(ObsMetricsTest, CounterGaugeBasics) {
  obs::Counter& c = obs::counter("test.basic_counter");
  const std::uint64_t before = c.value();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), before + 5);
  // Same name -> same object.
  EXPECT_EQ(&obs::counter("test.basic_counter"), &c);

  obs::Gauge& g = obs::gauge("test.basic_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(ObsMetricsTest, HistogramBuckets) {
  static const double kBounds[] = {1.0, 10.0, 100.0};
  obs::Histogram& h = obs::histogram("test.hist_buckets", kBounds);
  h.reset();
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(5.0);    // bucket 1 (<= 10)
  h.observe(10.0);   // bucket 1 (inclusive upper bound)
  h.observe(50.0);   // bucket 2 (<= 100)
  h.observe(1e6);    // overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 0.5 + 5.0 + 10.0 + 50.0 + 1e6, 1e-9);
}

TEST(ObsMetricsTest, HistogramQuantiles) {
  static const double kBounds[] = {10.0, 20.0, 40.0};
  obs::Histogram& h = obs::histogram("test.hist_quantiles", kBounds);
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> 0

  // 10 observations per bucket, none in overflow: quantiles lerp within
  // the bucket covering the requested rank.
  for (int i = 0; i < 10; ++i) {
    h.observe(5.0);
    h.observe(15.0);
    h.observe(30.0);
  }
  // Rank 15 of 30 lands mid-way through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  // Rank 3 of 30: 3/10 through the [0, 10] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);

  // Overflow observations report the last bound — the histogram cannot
  // resolve beyond its range.
  h.reset();
  for (int i = 0; i < 10; ++i) h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 40.0);
}

TEST(ObsMetricsTest, JsonSnapshotReportsQuantiles) {
  static const double kBounds[] = {10.0, 20.0};
  obs::Histogram& h = obs::histogram("test.hist_json_quantiles", kBounds);
  h.reset();
  for (int i = 0; i < 10; ++i) h.observe(15.0);

  std::ostringstream os;
  obs::write_metrics_json(os);
  const JsonValue root = JsonParser(os.str()).parse();
  const JsonValue& hist =
      root.at("histograms").at("test.hist_json_quantiles");
  EXPECT_DOUBLE_EQ(hist.at("p50").number, 15.0);
  EXPECT_DOUBLE_EQ(hist.at("p95").number, 19.5);
  EXPECT_DOUBLE_EQ(hist.at("p99").number, 19.9);
}

TEST(ObsMetricsTest, ConcurrentIncrementsAreLossless) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  static const double kBounds[] = {100.0, 1000.0};
  obs::Histogram& h = obs::histogram("test.concurrent_hist", kBounds);
  c.reset();
  h.reset();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(static_cast<double>(t * kPerThread + i));
      }
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsMetricsTest, JsonSnapshotParsesAndContainsMetrics) {
  obs::counter("test.snapshot_counter").add(3);
  obs::gauge("test.snapshot_gauge").set(1.25);
  static const double kBounds[] = {1.0, 2.0};
  obs::histogram("test.snapshot_hist", kBounds).observe(1.5);

  std::ostringstream os;
  obs::write_metrics_json(os);
  const JsonValue root = JsonParser(os.str()).parse();

  EXPECT_GE(root.at("counters").at("test.snapshot_counter").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.snapshot_gauge").number, 1.25);
  const JsonValue& hist = root.at("histograms").at("test.snapshot_hist");
  EXPECT_EQ(hist.at("bounds").array.size(), 2u);
  EXPECT_EQ(hist.at("buckets").array.size(), 3u);
  EXPECT_GE(hist.at("count").number, 1.0);
  EXPECT_GT(root.at("process").at("current_rss_bytes").number, 0.0);
  EXPECT_GT(root.at("process").at("peak_rss_bytes").number, 0.0);
}

TEST(LogLevelTest, ParseLogLevelNames) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(parse_log_level("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(parse_log_level("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(parse_log_level("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);

  level = LogLevel::kWarn;
  EXPECT_FALSE(parse_log_level("bogus", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // untouched on failure
  EXPECT_FALSE(parse_log_level(nullptr, &level));
  EXPECT_FALSE(parse_log_level("", &level));
}

}  // namespace
}  // namespace tmm
