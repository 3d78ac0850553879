#include "serve/stats.hpp"

#include <algorithm>
#include <cinttypes>
#include <iterator>
#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace tmm::serve {

namespace {

const util::lockorder::LockClass kSlowlogLockClass("serve.stats.slowlog");

/// Slow-log ring capacity (newest retained).
constexpr std::size_t kSlowKeep = 32;

/// The two reporting windows every section renders. Order matters: the
/// JSON keys come out in this order and tests grep for "10s" first.
constexpr double kWindows[] = {10.0, 300.0};
constexpr const char* kWindowNames[] = {"10s", "300s"};

void json_number(std::string& out, double v) {
  std::ostringstream os;
  os << v;
  out += os.str();
}

double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::vector<double> default_latency_bounds() {
  return obs::log_spaced_bounds(1.0, 1e7, 5);
}

ServeStats::ServeStats(std::vector<std::string> models, std::uint64_t start_us,
                       Options opt)
    : opt_(opt),
      start_us_(start_us),
      global_(default_latency_bounds()),
      slow_mu_(kSlowlogLockClass) {
  const std::vector<double> bounds = default_latency_bounds();
  for (std::string& m : models)
    per_model_.emplace(std::move(m), std::make_unique<Series>(bounds));
}

void ServeStats::record(std::uint64_t now_us, std::string_view model,
                        ResponseStatus status, bool cache_hit, ShedKind shed,
                        const RequestTimings& t, std::uint64_t request_id) {
  const bool ok = status == ResponseStatus::kOk;
  auto update = [&](Series& s) {
    s.latency.observe(now_us, t.total_us);
    s.requests.add(now_us);
    if (!ok) s.errors.add(now_us);
    if (shed != ShedKind::kNone) s.shed.add(now_us);
    if (shed == ShedKind::kOverload) s.shed_overload.add(now_us);
    if (shed == ShedKind::kDraining) s.shed_draining.add(now_us);
    if (ok) (cache_hit ? s.cache_hits : s.cache_misses).add(now_us);
  };
  update(global_);
  if (const auto it = per_model_.find(model); it != per_model_.end())
    update(*it->second);

  total_requests_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) total_errors_.fetch_add(1, std::memory_order_relaxed);
  if (shed != ShedKind::kNone)
    total_shed_.fetch_add(1, std::memory_order_relaxed);
  if (shed == ShedKind::kOverload)
    total_shed_overload_.fetch_add(1, std::memory_order_relaxed);
  if (shed == ShedKind::kDraining)
    total_shed_draining_.fetch_add(1, std::memory_order_relaxed);
  if (ok && cache_hit) total_cache_hits_.fetch_add(1, std::memory_order_relaxed);

  if (opt_.slow_threshold_us == 0 ||
      t.total_us < static_cast<double>(opt_.slow_threshold_us))
    return;
  const std::uint64_t nth =
      slow_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  SlowEntry e;
  e.ts_us = now_us;
  e.request_id = request_id;
  e.model = std::string(model);
  e.status = response_status_name(status);
  e.total_us = t.total_us;
  e.eval_us = t.eval_us;
  {
    util::MutexLock lock(slow_mu_);
    slow_ring_.push_back(std::move(e));
    while (slow_ring_.size() > kSlowKeep)
      slow_ring_.pop_front();
  }
  const std::uint32_t sample = std::max<std::uint32_t>(opt_.slow_sample, 1);
  if (nth % sample == 0)
    log_warn("serve: slow request id=%" PRIu64 " model=%.*s total=%.0fus "
             "eval=%.0fus (threshold %" PRIu64 "us, %" PRIu64 " slow so far)",
             request_id, static_cast<int>(model.size()), model.data(),
             t.total_us, t.eval_us, opt_.slow_threshold_us, nth);
}

void ServeStats::append_series_json(std::string& out, const Series& s,
                                    std::uint64_t now_us) const {
  out += '{';
  for (std::size_t w = 0; w < std::size(kWindows); ++w) {
    const double win = kWindows[w];
    if (w != 0) out += ", ";
    out += util::json_quoted(kWindowNames[w]);
    out += ": {";
    const obs::WindowedHistogram::Snapshot snap = s.latency.snapshot(now_us, win);
    const std::uint64_t requests = s.requests.sum(now_us, win);
    const std::uint64_t errors = s.errors.sum(now_us, win);
    const std::uint64_t shed = s.shed.sum(now_us, win);
    const std::uint64_t shed_over = s.shed_overload.sum(now_us, win);
    const std::uint64_t shed_drain = s.shed_draining.sum(now_us, win);
    const std::uint64_t hits = s.cache_hits.sum(now_us, win);
    const std::uint64_t misses = s.cache_misses.sum(now_us, win);
    out += "\"count\": " + std::to_string(requests);
    out += ", \"qps\": ";
    json_number(out, static_cast<double>(requests) / snap.window_s);
    auto q = [&](const char* name, double quant) {
      out += ", \"";
      out += name;
      out += "\": ";
      json_number(out,
                  obs::quantile_from_buckets(s.latency.bounds(), snap.buckets,
                                             quant));
    };
    q("p50_us", 0.50);
    q("p95_us", 0.95);
    q("p99_us", 0.99);
    q("p999_us", 0.999);
    out += ", \"mean_us\": ";
    json_number(out, snap.mean());
    out += ", \"error_rate\": ";
    json_number(out, ratio(errors, requests));
    out += ", \"shed_rate\": ";
    json_number(out, ratio(shed, requests));
    out += ", \"shed_overload_rate\": ";
    json_number(out, ratio(shed_over, requests));
    out += ", \"shed_draining_rate\": ";
    json_number(out, ratio(shed_drain, requests));
    out += ", \"cache_hit_rate\": ";
    json_number(out, ratio(hits, hits + misses));
    out += '}';
  }
  out += '}';
}

std::string ServeStats::stats_json(std::uint64_t now_us,
                                   std::string_view extra) const {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"now_us\": " + std::to_string(now_us);
  out += ",\n  \"uptime_s\": ";
  json_number(out, now_us >= start_us_
                       ? static_cast<double>(now_us - start_us_) / 1e6
                       : 0.0);
  out += ",\n  \"global\": ";
  append_series_json(out, global_, now_us);
  out += ",\n  \"models\": {";
  bool first = true;
  for (const auto& [name, series] : per_model_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += util::json_quoted(name);
    out += ": ";
    append_series_json(out, *series, now_us);
  }
  out += "\n  },\n  \"lifetime\": {";
  out += "\"requests\": " +
         std::to_string(total_requests_.load(std::memory_order_relaxed));
  out += ", \"errors\": " +
         std::to_string(total_errors_.load(std::memory_order_relaxed));
  out += ", \"shed\": " +
         std::to_string(total_shed_.load(std::memory_order_relaxed));
  out += ", \"shed_overload\": " +
         std::to_string(total_shed_overload_.load(std::memory_order_relaxed));
  out += ", \"shed_draining\": " +
         std::to_string(total_shed_draining_.load(std::memory_order_relaxed));
  out += ", \"cache_hits\": " +
         std::to_string(total_cache_hits_.load(std::memory_order_relaxed));
  out += "}";
  if (!extra.empty()) {
    out += ",\n  ";
    out += extra;
  }
  out += ",\n  \"slow\": {";
  out += "\"threshold_us\": " + std::to_string(opt_.slow_threshold_us);
  out += ", \"total\": " +
         std::to_string(slow_total_.load(std::memory_order_relaxed));
  out += ", \"recent\": [";
  {
    util::MutexLock lock(slow_mu_);
    bool first_slow = true;
    for (const SlowEntry& e : slow_ring_) {
      out += first_slow ? "" : ", ";
      first_slow = false;
      out += "{\"ts_us\": " + std::to_string(e.ts_us);
      out += ", \"request_id\": " + std::to_string(e.request_id);
      out += ", \"model\": ";
      out += util::json_quoted(e.model);
      out += ", \"status\": ";
      out += util::json_quoted(e.status);
      out += ", \"total_us\": ";
      json_number(out, e.total_us);
      out += ", \"eval_us\": ";
      json_number(out, e.eval_us);
      out += '}';
    }
  }
  out += "]}\n}\n";
  return out;
}

std::string ServeStats::health_json(std::uint64_t now_us, bool draining,
                                    std::size_t models_loaded,
                                    std::size_t models_failed,
                                    std::uint64_t generation,
                                    std::uint64_t reloads_ok,
                                    std::uint64_t reload_failures) const {
  std::string out;
  out += "{\"status\": ";
  out += util::json_quoted(draining ? "draining" : "ok");
  out += ", \"uptime_s\": ";
  json_number(out, now_us >= start_us_
                       ? static_cast<double>(now_us - start_us_) / 1e6
                       : 0.0);
  out += ", \"models_loaded\": " + std::to_string(models_loaded);
  out += ", \"models_failed\": " + std::to_string(models_failed);
  out += ", \"generation\": " + std::to_string(generation);
  out += ", \"reloads_ok\": " + std::to_string(reloads_ok);
  out += ", \"reload_failures\": " + std::to_string(reload_failures);
  out += ", \"requests\": " +
         std::to_string(total_requests_.load(std::memory_order_relaxed));
  out += ", \"flight_recorder\": {\"enabled\": ";
  out += obs::flight_recorder_enabled() ? "true" : "false";
  out += ", \"records_total\": " +
         std::to_string(obs::flight_total_recorded());
  out += "}}\n";
  return out;
}

std::uint64_t ServeStats::slow_total() const noexcept {
  return slow_total_.load(std::memory_order_relaxed);
}

}  // namespace tmm::serve
