// Live serving telemetry (docs/OBSERVABILITY.md): sliding-window
// aggregation driven by a fake clock, the lock-free request flight
// recorder (including the TSan target with concurrent writers and
// drains), protocol-v2 admin round-trips, the ServeStats slow-request
// log, and end-to-end kStats/kHealth/kFlightDump against a live server
// plus the dump-on-fault hook.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sliding_window.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "serve/tmb.hpp"
#include "serve_helpers.hpp"

namespace tmm {
namespace {

namespace fs = std::filesystem;
using namespace test;

constexpr std::uint64_t kSec = 1'000'000;  // fake-clock microseconds

/// Anchor-scan a rendered stats JSON for `"key": <number>` after the
/// given sequence of section anchors (e.g. {"global", "10s"}). The
/// renderer's key order is fixed, so plain forward scanning is exact.
double json_value_after(const std::string& json,
                        std::initializer_list<const char*> anchors,
                        const char* key) {
  std::size_t pos = 0;
  for (const char* a : anchors) {
    const std::string quoted = std::string("\"") + a + "\"";
    pos = json.find(quoted, pos);
    EXPECT_NE(pos, std::string::npos) << "missing anchor " << a;
    if (pos == std::string::npos) return -1.0;
    pos += quoted.size();
  }
  const std::string quoted_key = std::string("\"") + key + "\":";
  pos = json.find(quoted_key, pos);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + quoted_key.size(), nullptr);
}

// ------------------------------------------------------ latency buckets

TEST(LatencyBuckets, LogSpacedBoundsCoverTheRangePerDecade) {
  const std::vector<double> b = obs::log_spaced_bounds(1.0, 1e7, 5);
  ASSERT_GE(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_GE(b.back(), 1e7);
  const double step = std::pow(10.0, 1.0 / 5);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_GT(b[i], b[i - 1]);  // strictly ascending
    EXPECT_NEAR(b[i] / b[i - 1], step, 1e-9);
  }
  // The serve default is exactly this shape.
  EXPECT_EQ(serve::default_latency_bounds(), b);
}

TEST(LatencyBuckets, HistogramJsonSnapshotEmitsP999) {
  static const double kBounds[] = {1.0, 10.0, 100.0, 1000.0};
  obs::Histogram& h = obs::histogram("test.serve_stats_p999", kBounds);
  for (int i = 0; i < 990; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(500.0);  // the 1% tail
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string json = os.str();
  const double p99 = json_value_after(json, {"test.serve_stats_p999"}, "p99");
  const double p999 =
      json_value_after(json, {"test.serve_stats_p999"}, "p999");
  EXPECT_LE(p99, 10.0);    // bulk bucket (rank lands on its upper edge)
  EXPECT_GT(p999, 100.0);  // only p99.9 sees the tail
}

// ------------------------------------------------------- sliding window

TEST(SlidingWindow, CounterDecaysOutOfShortWindowButNotLongOne) {
  obs::WindowedCounter c;
  const std::uint64_t t0 = 1000 * kSec;
  c.add(t0, 5);
  c.add(t0 + kSec / 2, 3);
  EXPECT_EQ(c.sum(t0 + kSec / 2, 10.0), 8u);
  // 60 s later: outside the 10 s window, inside the 300 s one.
  const std::uint64_t t1 = t0 + 60 * kSec;
  EXPECT_EQ(c.sum(t1, 10.0), 0u);
  EXPECT_EQ(c.sum(t1, 300.0), 8u);
  EXPECT_NEAR(c.rate(t1, 300.0), 8.0 / 300.0, 1e-12);
  // Past the ring's retention (330 slots): gone from every window.
  const std::uint64_t t2 = t0 + 400 * kSec;
  EXPECT_EQ(c.sum(t2, 300.0), 0u);
}

TEST(SlidingWindow, CounterSlotRecyclingDropsLateWrites) {
  obs::WindowedCounter c(4);  // tiny ring: epoch e and e+4 share a slot
  const std::uint64_t t0 = 100 * kSec;
  c.add(t0, 7);
  c.add(t0 + 4 * kSec, 2);  // recycles t0's slot
  EXPECT_EQ(c.sum(t0 + 4 * kSec, 1.0), 2u);
  // A straggler stamping the recycled second is dropped, not merged
  // into the wrong window.
  c.add(t0, 100);
  EXPECT_EQ(c.sum(t0 + 4 * kSec, 4.0), 2u);
}

TEST(SlidingWindow, HistogramWindowedQuantilesTrackRecentTrafficOnly) {
  static const double kBounds[] = {10.0, 100.0, 1000.0, 10000.0};
  obs::WindowedHistogram h(kBounds);
  const std::uint64_t t0 = 2000 * kSec;
  for (int i = 0; i < 100; ++i) h.observe(t0, 5000.0);  // slow era
  const std::uint64_t t1 = t0 + 120 * kSec;
  for (int i = 0; i < 100; ++i) h.observe(t1, 50.0);  // fast era
  // The 10 s view sees only the fast era; the 300 s view merges both.
  EXPECT_LT(h.quantile(t1, 10.0, 0.99), 100.0);
  EXPECT_GT(h.quantile(t1, 300.0, 0.99), 1000.0);
  const obs::WindowedHistogram::Snapshot recent = h.snapshot(t1, 10.0);
  EXPECT_EQ(recent.count, 100u);
  EXPECT_NEAR(recent.mean(), 50.0, 1e-9);
  const obs::WindowedHistogram::Snapshot both = h.snapshot(t1, 300.0);
  EXPECT_EQ(both.count, 200u);
  // An empty window is empty, not an average of history.
  EXPECT_EQ(h.snapshot(t1 + 30 * kSec, 10.0).count, 0u);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, DisabledRecordIsANoop) {
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
  obs::FlightRecord rec;
  rec.request_id = 1;
  obs::flight_record(rec);
  EXPECT_FALSE(obs::flight_recorder_enabled());
  EXPECT_EQ(obs::flight_total_recorded(), 0u);
  EXPECT_TRUE(obs::flight_snapshot().empty());
}

TEST(FlightRecorder, WraparoundKeepsTheLastNInSequenceOrder) {
  obs::set_flight_recorder_enabled(true, 8);
  obs::reset_flight_recorder();
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::FlightRecord rec;
    rec.request_id = i;
    rec.total_us = static_cast<float>(i);
    rec.set_model("blk");
    rec.set_status("ok");
    obs::flight_record(rec);
  }
  EXPECT_EQ(obs::flight_total_recorded(), 20u);
  const std::vector<obs::FlightRecord> snap = obs::flight_snapshot();
  ASSERT_EQ(snap.size(), 8u);  // ring capacity, not total
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].request_id, 12 + i);  // the last 8, oldest first
    if (i > 0) {
      EXPECT_GT(snap[i].seq, snap[i - 1].seq);
    }
  }
  // A quiesced recorder drains deterministically.
  const std::vector<obs::FlightRecord> again = obs::flight_snapshot();
  ASSERT_EQ(again.size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(again[i].seq, snap[i].seq);
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
}

TEST(FlightRecorder, TextFieldsTruncatePreservingThePrefix) {
  obs::FlightRecord rec;
  rec.set_model("a_model_name_well_past_sixteen_chars");
  rec.set_status("deadline_exceeded");
  EXPECT_EQ(rec.model_str(), "a_model_name_we");  // 15 chars + NUL
  EXPECT_EQ(rec.status_str(), "deadline_ex");     // 11 chars + NUL
  rec.set_model(nullptr);
  EXPECT_EQ(rec.model_str(), "");
}

TEST(FlightRecorder, DumpJsonAndAtomicFileWrite) {
  obs::set_flight_recorder_enabled(true, 4);
  obs::reset_flight_recorder();
  obs::FlightRecord rec;
  rec.request_id = 42;
  rec.set_model("blk");
  rec.set_status("ok");
  rec.flags = obs::kFlightCacheHit;
  obs::flight_record(rec);
  std::ostringstream os;
  obs::write_flight_dump_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"records_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"blk\""), std::string::npos);

  TempDir dir;
  EXPECT_TRUE(obs::write_flight_dump_file(dir.str("dump.json")));
  std::ifstream in(dir.str("dump.json"));
  std::stringstream file_body;
  file_body << in.rdbuf();
  EXPECT_EQ(file_body.str(), json);
  // I/O failure reports false instead of throwing: the dump-on-fault
  // hook must never turn a fault into a second failure.
  EXPECT_FALSE(
      obs::write_flight_dump_file(dir.str("no/such/subdir/dump.json")));
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
}

// The TSan target: writers on their own rings, a drainer copying them
// through the per-slot seqlocks, and a reset racing both. Every
// snapshotted record must be internally consistent (never torn).
TEST(FlightRecorder, ConcurrentWritersAndDrainsNeverTearRecords) {
  obs::set_flight_recorder_enabled(true, 64);
  obs::reset_flight_recorder();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::atomic<bool> draining{true};
  std::atomic<std::uint64_t> torn{0};

  std::thread drainer([&] {
    while (draining.load(std::memory_order_relaxed)) {
      for (const obs::FlightRecord& rec : obs::flight_snapshot()) {
        // request_id encodes (writer, i); total_us mirrors i. A torn
        // copy would mix words from two writes of the same slot.
        const std::uint64_t w = rec.request_id / 1'000'000;
        const std::uint64_t i = rec.request_id % 1'000'000;
        const std::string model = "t" + std::to_string(w);
        if (rec.model_str() != model ||
            rec.total_us != static_cast<float>(i))
          torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      const std::string model = "t" + std::to_string(w);
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        obs::FlightRecord rec;
        rec.request_id = static_cast<std::uint64_t>(w) * 1'000'000 + i;
        rec.total_us = static_cast<float>(i);
        rec.set_model(model.c_str());
        rec.set_status("ok");
        obs::flight_record(rec);
      }
    });
  }
  for (auto& t : writers) t.join();
  draining.store(false, std::memory_order_relaxed);
  drainer.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(obs::flight_total_recorded(), kWriters * kPerWriter);
  const std::vector<obs::FlightRecord> snap = obs::flight_snapshot();
  EXPECT_EQ(snap.size(), static_cast<std::size_t>(kWriters) * 64);
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
}

// ---------------------------------------------------------- protocol v2

TEST(ProtocolV2, AdminRequestKindsRoundTrip) {
  for (const serve::RequestKind kind :
       {serve::RequestKind::kStats, serve::RequestKind::kHealth,
        serve::RequestKind::kFlightDump}) {
    serve::Request req;
    req.request_id = 99;
    req.kind = kind;  // admin kinds carry no model and zero ports
    const serve::Request back =
        serve::decode_request(serve::encode_request(req));
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.request_id, 99u);
    EXPECT_TRUE(back.model.empty());
    EXPECT_TRUE(back.bc.pi.empty());
  }
  EXPECT_STREQ(serve::request_kind_name(serve::RequestKind::kStats),
               "stats");
  EXPECT_STREQ(serve::request_kind_name(serve::RequestKind::kFlightDump),
               "flight_dump");
}

TEST(ProtocolV2, AdminTextResponseRoundTrips) {
  serve::Response resp;
  resp.request_id = 7;
  resp.admin = true;
  resp.text = "{\"global\": {\"10s\": {\"qps\": 12.5}}}";
  const serve::Response back =
      serve::decode_response(serve::encode_response(resp));
  EXPECT_EQ(back.request_id, 7u);
  EXPECT_EQ(back.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(back.admin);
  EXPECT_EQ(back.text, resp.text);
  EXPECT_EQ(back.snap.num_ports, 0u);
}

TEST(ProtocolV2, RejectsUnknownRequestKind) {
  serve::Request req;
  req.kind = serve::RequestKind::kStats;
  std::string payload = serve::encode_request(req);
  // The kind word sits after magic(4) + version(2) + flags(2).
  payload[8] = 0x07;
  EXPECT_EQ(code_of([&] {
              static_cast<void>(serve::decode_request(payload));
            }),
            fault::ErrorCode::kParse);
}

// ----------------------------------------------------------- ServeStats

serve::RequestTimings timings_us(double total) {
  serve::RequestTimings t;
  t.parse_us = 1.0;
  t.eval_us = total / 2;
  t.write_us = 1.0;
  t.total_us = total;
  return t;
}

TEST(ServeStats, WindowedViewsDecayWhileLifetimeTotalsPersist) {
  serve::ServeStats st({"a", "b"}, /*start_us=*/0);
  const std::uint64_t t0 = 50 * kSec;
  for (int i = 0; i < 20; ++i)
    st.record(t0, "a", serve::ResponseStatus::kOk, /*cache_hit=*/i % 2 == 0,
              serve::ShedKind::kNone, timings_us(100.0), i);
  for (int i = 0; i < 5; ++i)
    st.record(t0, "b", serve::ResponseStatus::kInternalError, false,
              serve::ShedKind::kNone, timings_us(9000.0), 100 + i);

  const std::string fresh = st.stats_json(t0);
  EXPECT_EQ(json_value_after(fresh, {"global", "10s"}, "count"), 25.0);
  EXPECT_NEAR(json_value_after(fresh, {"global", "10s"}, "qps"), 2.5, 1e-9);
  EXPECT_NEAR(json_value_after(fresh, {"global", "10s"}, "error_rate"),
              5.0 / 25.0, 1e-9);
  // Hit-rate is over requests that consulted the cache (the ok ones):
  // 10 hits / 20 ok, not 10 / 25.
  EXPECT_NEAR(json_value_after(fresh, {"global", "10s"}, "cache_hit_rate"),
              0.5, 1e-9);
  // Per-model split: "a" is clean and fast, "b" is all errors and slow.
  EXPECT_EQ(json_value_after(fresh, {"models", "a", "10s"}, "count"), 20.0);
  EXPECT_EQ(json_value_after(fresh, {"models", "a", "10s"}, "error_rate"),
            0.0);
  EXPECT_EQ(json_value_after(fresh, {"models", "b", "10s"}, "error_rate"),
            1.0);
  EXPECT_GT(json_value_after(fresh, {"models", "b", "10s"}, "p50_us"),
            json_value_after(fresh, {"models", "a", "10s"}, "p99_us"));

  // 60 s later the 10 s view is empty, the 300 s view still sees it.
  const std::string later = st.stats_json(t0 + 60 * kSec);
  EXPECT_EQ(json_value_after(later, {"global", "10s"}, "count"), 0.0);
  EXPECT_EQ(json_value_after(later, {"global", "300s"}, "count"), 25.0);
  // 400 s later every window is empty but lifetime totals persist —
  // windowed stats, not lifetime averages in disguise.
  const std::string stale = st.stats_json(t0 + 400 * kSec);
  EXPECT_EQ(json_value_after(stale, {"global", "300s"}, "count"), 0.0);
  EXPECT_EQ(json_value_after(stale, {"lifetime"}, "requests"), 25.0);
  EXPECT_EQ(json_value_after(stale, {"lifetime"}, "errors"), 5.0);
  EXPECT_EQ(json_value_after(stale, {"lifetime"}, "cache_hits"), 10.0);
}

TEST(ServeStats, ShedRequestsCountInShedAndErrorRates) {
  serve::ServeStats st({"a"}, 0);
  const std::uint64_t t0 = 10 * kSec;
  st.record(t0, "a", serve::ResponseStatus::kOk, false,
            serve::ShedKind::kNone, timings_us(50.0), 1);
  st.record(t0, "a", serve::ResponseStatus::kShuttingDown, false,
            serve::ShedKind::kDraining, timings_us(5.0), 2);
  st.record(t0, "a", serve::ResponseStatus::kOverloaded, false,
            serve::ShedKind::kOverload, timings_us(5.0), 3);
  st.record(t0, "a", serve::ResponseStatus::kOverloaded, false,
            serve::ShedKind::kOverload, timings_us(5.0), 4);
  const std::string json = st.stats_json(t0);
  EXPECT_NEAR(json_value_after(json, {"global", "10s"}, "shed_rate"), 0.75,
              1e-9);
  EXPECT_NEAR(json_value_after(json, {"global", "10s"}, "error_rate"), 0.75,
              1e-9);
  // The split windows tell draining and overload shedding apart.
  EXPECT_NEAR(
      json_value_after(json, {"global", "10s"}, "shed_draining_rate"), 0.25,
      1e-9);
  EXPECT_NEAR(
      json_value_after(json, {"global", "10s"}, "shed_overload_rate"), 0.5,
      1e-9);
  EXPECT_EQ(json_value_after(json, {"lifetime"}, "shed_overload"), 2.0);
  EXPECT_EQ(json_value_after(json, {"lifetime"}, "shed_draining"), 1.0);
  EXPECT_EQ(json_value_after(json, {"lifetime"}, "shed"), 3.0);
}

TEST(ServeStats, SlowLogHonorsThresholdAndBoundedRing) {
  serve::ServeStatsOptions opt;
  opt.slow_threshold_us = 100;
  opt.slow_sample = 1u << 30;  // retain in the ring, never log_warn
  serve::ServeStats st({"a"}, 0, opt);
  const std::uint64_t t0 = 20 * kSec;
  for (int i = 0; i < 10; ++i)  // under threshold: not slow
    st.record(t0, "a", serve::ResponseStatus::kOk, false,
              serve::ShedKind::kNone, timings_us(50.0), i);
  EXPECT_EQ(st.slow_total(), 0u);
  // Over threshold: all slow, the ring keeps the newest 32 of 38.
  constexpr int kRing = 32;
  constexpr int kSlow = kRing + 6;
  for (int i = 0; i < kSlow; ++i)
    st.record(t0, "a", serve::ResponseStatus::kOk, false,
              serve::ShedKind::kNone, timings_us(200.0 + i), 100 + i);
  EXPECT_EQ(st.slow_total(), static_cast<std::uint64_t>(kSlow));
  const std::string json = st.stats_json(t0);
  EXPECT_EQ(json_value_after(json, {"slow"}, "threshold_us"), 100.0);
  EXPECT_EQ(json_value_after(json, {"slow"}, "total"), double{kSlow});
  for (int id = 100; id < 100 + kSlow; ++id) {
    const bool kept = id >= 100 + kSlow - kRing;
    EXPECT_EQ(json.find("\"request_id\": " + std::to_string(id) + ",") !=
                  std::string::npos,
              kept)
        << "request_id " << id;
  }
}

TEST(ServeStats, HealthJsonReportsDrainingAndModelCounts) {
  serve::ServeStats st({"a"}, /*start_us=*/kSec);
  const std::string ok = st.health_json(3 * kSec, /*draining=*/false,
                                        /*models_loaded=*/2,
                                        /*models_failed=*/1);
  EXPECT_NE(ok.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(json_value_after(ok, {}, "models_loaded"), 2.0);
  EXPECT_EQ(json_value_after(ok, {}, "models_failed"), 1.0);
  EXPECT_NEAR(json_value_after(ok, {}, "uptime_s"), 2.0, 1e-9);
  const std::string draining = st.health_json(3 * kSec, true, 2, 0);
  EXPECT_NE(draining.find("\"status\": \"draining\""), std::string::npos);
}

// ------------------------------------------------- live admin channel

TEST(ServeAdmin, StatsHealthAndFlightDumpAnswerOverTheWire) {
  obs::reset_flight_recorder();
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  opt.num_threads = 2;
  opt.flight_capacity = 32;
  LiveServer live(eval, opt);

  const int fd = live.connect();
  for (int i = 0; i < 5; ++i) {
    serve::Request req;
    req.request_id = i;
    req.model = "blk";
    req.bc = constraints_for(fx.model(), 7);  // same key: hits after cold
    EXPECT_EQ(serve::call(fd, req).status, serve::ResponseStatus::kOk);
  }

  serve::Request stats;
  stats.request_id = 100;
  stats.kind = serve::RequestKind::kStats;
  const serve::Response stats_resp = serve::call(fd, stats);
  EXPECT_EQ(stats_resp.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(stats_resp.admin);
  EXPECT_EQ(json_value_after(stats_resp.text, {"global", "10s"}, "count"),
            5.0);
  EXPECT_NEAR(
      json_value_after(stats_resp.text, {"global", "10s"}, "cache_hit_rate"),
      4.0 / 5.0, 1e-9);
  EXPECT_EQ(json_value_after(stats_resp.text, {"models", "blk", "10s"},
                             "count"),
            5.0);

  serve::Request health;
  health.kind = serve::RequestKind::kHealth;
  const serve::Response health_resp = serve::call(fd, health);
  EXPECT_TRUE(health_resp.admin);
  EXPECT_NE(health_resp.text.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(json_value_after(health_resp.text, {}, "models_loaded"), 1.0);

  serve::Request flight;
  flight.kind = serve::RequestKind::kFlightDump;
  const serve::Response flight_resp = serve::call(fd, flight);
  EXPECT_TRUE(flight_resp.admin);
  EXPECT_NE(flight_resp.text.find("\"model\": \"blk\""), std::string::npos);
  EXPECT_GE(json_value_after(flight_resp.text, {}, "records_total"), 5.0);

  // Admin traffic stays out of the evaluate statistics.
  const serve::Response stats2 = serve::call(fd, stats);
  EXPECT_EQ(json_value_after(stats2.text, {"lifetime"}, "requests"), 5.0);

  ::close(fd);
  live.stop();
  ASSERT_NE(live.server.serve_stats(), nullptr);
  EXPECT_EQ(live.server.serve_stats()->slow_total(), 0u);
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
}

TEST(ServeAdmin, FaultFiringDumpsAParseableFlightRecord) {
  obs::reset_flight_recorder();
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  opt.num_threads = 1;
  opt.flight_capacity = 16;
  opt.dump_dir = fx.dir.str();
  LiveServer live(eval, opt);

  const int fd = live.connect();
  serve::Request req;
  req.request_id = 1;
  req.model = "blk";
  req.bc = constraints_for(fx.model(), 3);
  EXPECT_EQ(serve::call(fd, req).status, serve::ResponseStatus::kOk);

  // Arm the parse-request site: the next frame throws inside decode
  // (an injected fault surfaces as kInternalError, not kBadRequest),
  // and the fire hook drops a flight dump next to the models before
  // the error surfaces.
  ASSERT_TRUE(fault::arm("serve.parse_request", 1).ok());
  req.request_id = 2;
  EXPECT_EQ(serve::call(fd, req).status, serve::ResponseStatus::kInternalError);
  EXPECT_TRUE(fault::fired());
  fault::disarm();

  const std::string dump = fx.dir.str("flight.serve_parse_request.json");
  ASSERT_TRUE(fs::exists(dump));
  std::ifstream in(dump);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"records_total\""), std::string::npos);
  EXPECT_NE(body.str().find("\"request_id\": 1"), std::string::npos);

  ::close(fd);
  live.stop();
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
}

}  // namespace
}  // namespace tmm
