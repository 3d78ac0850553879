#pragma once
// Live serving statistics for `tmm serve` (docs/OBSERVABILITY.md,
// "Live serving telemetry").
//
// ServeStats aggregates every answered request into sliding-window
// structures (obs/sliding_window.hpp) so the admin channel can report
// what the server is doing *now* — last-10 s and last-5 min QPS, tail
// latency, cache hit-rate and error/shed rate, globally and per model —
// alongside the process-lifetime totals. Recording is lock-free and
// per-request cheap; the JSON renderers are only ever called from the
// admin path (kStats/kHealth requests), off the evaluation hot path.
//
// The slow-request log is the one mutex-protected piece: requests
// slower than `slow_threshold_us` are kept in a small bounded ring
// (newest win) and every `slow_sample`-th one is also emitted through
// log_warn, so a misbehaving tail is visible in stderr without
// drowning it. Lock class "serve.stats.slowlog" — a leaf lock.
//
// Time is an explicit `now_us` (obs::trace_now_us() clock) so tests
// drive the windows deterministically with a fake clock.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sliding_window.hpp"
#include "serve/protocol.hpp"
#include "util/mutex.hpp"

namespace tmm::serve {

/// Per-stage wall-time breakdown of one served request, microseconds.
struct RequestTimings {
  double parse_us = 0.0;
  double cache_us = 0.0;  ///< result-cache lookup (cache-hit requests)
  double eval_us = 0.0;   ///< STA evaluation (cache-miss requests)
  double write_us = 0.0;
  double total_us = 0.0;  ///< arrival to response written
  bool has_deadline = false;
  double deadline_slack_ms = 0.0;  ///< deadline minus elapsed at response
};

/// Why a request was rejected without evaluation. Draining (shutdown)
/// and overload (admission control) are tracked in separate windows so
/// `tmm stat` can distinguish "deploy in progress" from "saturated";
/// deadline-expired shedding counts with the draining bucket's
/// aggregate shed rate but carries no flight flag of its own.
enum class ShedKind : std::uint8_t {
  kNone = 0,      ///< request was evaluated (or is admin traffic)
  kDraining,      ///< kShuttingDown during drain
  kOverload,      ///< kOverloaded at admission
  kDeadline,      ///< deadline elapsed before evaluation started
};

/// Slow-request-log controls (namespace-scope so `= {}` default
/// arguments see the member initializers — nested-class NSDMIs are not
/// parsed until the enclosing class is complete).
struct ServeStatsOptions {
  /// Requests with total_us above this land in the slow log;
  /// 0 disables the slow log entirely.
  std::uint64_t slow_threshold_us = 0;
  /// Emit a log_warn line for every Nth slow request (1 = all);
  /// the bounded ring retains every slow request regardless.
  std::uint32_t slow_sample = 1;
};

class ServeStats {
 public:
  using Options = ServeStatsOptions;

  /// `models` fixes the per-model breakdown up front (the registry is
  /// immutable after load); requests for names outside it aggregate
  /// into the global section only.
  ServeStats(std::vector<std::string> models, std::uint64_t start_us,
             Options opt = {});

  ServeStats(const ServeStats&) = delete;
  ServeStats& operator=(const ServeStats&) = delete;

  /// Record one answered request. `shed` != kNone marks requests
  /// rejected without evaluation — they count in shed_rate as well as
  /// error_rate, with overload and draining split into their own
  /// windows. Lock-free except when the request is slower than the
  /// slow threshold.
  void record(std::uint64_t now_us, std::string_view model,
              ResponseStatus status, bool cache_hit, ShedKind shed,
              const RequestTimings& t, std::uint64_t request_id);

  /// The kStats response body: windowed ("10s", "300s") QPS and
  /// latency percentiles plus rates, globally and per model, lifetime
  /// totals, and the slow-log section. `extra` is a raw JSON fragment
  /// (already quoted/escaped, e.g. `"reload": {...}, "admission":
  /// {...}`) spliced in at top level — how the server contributes its
  /// reload and admission sections without stats knowing about them.
  std::string stats_json(std::uint64_t now_us,
                         std::string_view extra = {}) const;

  /// The kHealth response body: a small liveness/readiness summary.
  /// The reload trio reports the hot-reload state (generation 0 =
  /// manager-less server, e.g. unit tests).
  std::string health_json(std::uint64_t now_us, bool draining,
                          std::size_t models_loaded,
                          std::size_t models_failed,
                          std::uint64_t generation = 0,
                          std::uint64_t reloads_ok = 0,
                          std::uint64_t reload_failures = 0) const;

  /// Lifetime count of requests that crossed the slow threshold.
  std::uint64_t slow_total() const noexcept;

  const Options& options() const noexcept { return opt_; }

 private:
  /// One aggregation target (the global one, or one model's).
  struct Series {
    explicit Series(std::span<const double> latency_bounds)
        : latency(latency_bounds) {}
    obs::WindowedHistogram latency;  ///< total_us
    obs::WindowedCounter requests;
    obs::WindowedCounter errors;
    obs::WindowedCounter shed;           ///< all shed kinds combined
    obs::WindowedCounter shed_overload;  ///< admission-control rejects
    obs::WindowedCounter shed_draining;  ///< shutdown-drain rejects
    obs::WindowedCounter cache_hits;
    obs::WindowedCounter cache_misses;
  };

  struct SlowEntry {
    std::uint64_t ts_us = 0;
    std::uint64_t request_id = 0;
    std::string model;
    std::string status;
    double total_us = 0.0;
    double eval_us = 0.0;
  };

  void append_series_json(std::string& out, const Series& s,
                          std::uint64_t now_us) const;

  const Options opt_;
  const std::uint64_t start_us_;
  Series global_;
  /// Name -> series, immutable after construction (no lock needed).
  std::map<std::string, std::unique_ptr<Series>, std::less<>> per_model_;

  // Lifetime totals (relaxed: independent monotonic event counts).
  std::atomic<std::uint64_t> total_requests_{0};
  std::atomic<std::uint64_t> total_errors_{0};
  std::atomic<std::uint64_t> total_shed_{0};
  std::atomic<std::uint64_t> total_shed_overload_{0};
  std::atomic<std::uint64_t> total_shed_draining_{0};
  std::atomic<std::uint64_t> total_cache_hits_{0};
  std::atomic<std::uint64_t> slow_total_{0};

  /// Lock class "serve.stats.slowlog"; guards only the slow ring.
  mutable util::Mutex slow_mu_;
  std::deque<SlowEntry> slow_ring_ TMM_GUARDED_BY(slow_mu_);
};

/// Default serving-latency bucket bounds: log-spaced 1 µs .. 10 s,
/// 5 per decade — resolves p99.9 of a long-tailed distribution where
/// the old linear buckets quantized it into one overflow bucket.
std::vector<double> default_latency_bounds();

}  // namespace tmm::serve
