#pragma once
// Global metrics registry: named counters, gauges and fixed-bucket
// histograms, dumped as one JSON snapshot (`tmm --metrics out.json`,
// Framework stage accounting, bench harnesses).
//
// All mutators are lock-free atomics, safe under concurrent use from
// the TS-evaluation worker pool (ThreadSanitizer-clean). Call sites
// cache the returned reference in a function-local static so the hot
// path is a single relaxed atomic operation:
//
//   static obs::Counter& runs = obs::counter("sta.runs");
//   runs.add();
//
// Metric names follow the `layer.quantity` convention documented in
// docs/OBSERVABILITY.md.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tmm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (e.g. "pins remained by the latest filter run").
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// The bucket core obs::Histogram and every obs::WindowedHistogram slot
/// share: lock-free per-bucket counts, a total count and a sum over
/// ascending upper `bounds` owned by the caller, plus one implicit
/// overflow bucket for everything above the last bound.
struct AtomicBuckets {
  explicit AtomicBuckets(std::size_t num_bounds) : buckets(num_bounds + 1) {}

  void observe(std::span<const double> bounds, double v) noexcept {
    // lower_bound: bounds are *inclusive* upper bounds, so a value equal
    // to a bound counts in that bound's bucket, and only values above
    // the last bound reach the overflow bucket.
    const auto i = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    buckets[i].fetch_add(1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    // CAS add: std::atomic<double>::fetch_add is C++20 but spotty on
    // older toolchains; the loop is equivalent and relaxed-safe.
    double cur = sum.load(std::memory_order_relaxed);
    while (!sum.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
    }
  }

  void clear() noexcept {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    count.store(0, std::memory_order_relaxed);
    sum.store(0.0, std::memory_order_relaxed);
  }

  std::vector<std::atomic<std::uint64_t>> buckets;
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds; one
/// implicit overflow bucket collects everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double v) noexcept { core_.observe(bounds_, v); }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return core_.count.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    return core_.sum.load(std::memory_order_relaxed);
  }

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside
  /// the bucket the rank falls into; observations in the overflow
  /// bucket report the last bound (a lower bound on the true value).
  /// 0 when empty. The JSON snapshot emits p50/p95/p99/p999 from this.
  double quantile(double q) const;

  void reset() noexcept { core_.clear(); }

 private:
  std::vector<double> bounds_;
  AtomicBuckets core_;
};

/// Estimate the q-quantile of a bucketed distribution: `buckets` has
/// bounds.size() + 1 entries (the last is the overflow bucket), with
/// linear interpolation inside the bucket the rank falls into. Shared
/// by Histogram::quantile and obs::WindowedHistogram so lifetime and
/// windowed percentiles agree on semantics.
double quantile_from_buckets(std::span<const double> bounds,
                             std::span<const std::uint64_t> buckets,
                             double q);

/// Log-spaced histogram bounds: `per_decade` bounds per power of ten
/// from `lo` up to and including (at least) `hi`. Tail percentiles of a
/// long-tailed latency distribution need log spacing — linear buckets
/// quantize p99.9 into one coarse overflow bucket.
std::vector<double> log_spaced_bounds(double lo, double hi, int per_decade);

/// Look up (or register on first use) a metric by name. References stay
/// valid for the process lifetime; repeated calls with the same name
/// return the same object. A histogram's bucket bounds are fixed by the
/// first registration; later `bounds` arguments are ignored.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::span<const double> bounds);

/// Snapshot every registered metric as JSON, plus a `process` section
/// with the current/peak RSS sampled at dump time (instrument.hpp).
void write_metrics_json(std::ostream& os);

/// Convenience: write_metrics_json to `path`; returns false on I/O error.
bool write_metrics_json_file(const std::string& path);

/// Zero every registered metric (bench and test isolation). Registered
/// references remain valid.
void reset_metrics();

}  // namespace tmm::obs
