#pragma once
// Sliding-window aggregation for long-running servers
// (docs/OBSERVABILITY.md, "Live serving telemetry").
//
// The process-lifetime metrics in obs/metrics.hpp answer "what happened
// since start"; a server that has been up for a week needs "what is
// happening *now*". WindowedCounter and WindowedHistogram keep a ring
// of per-second slots and lazily recycle slots as time advances, so a
// query merges only the slots inside the requested window — "last 10 s"
// and "last 5 min" views from one structure, with stale traffic decayed
// out instead of averaged in forever.
//
// Concurrency: mutators are lock-free (relaxed atomic adds into the
// current slot; slot recycling is a small epoch-CAS protocol), safe
// from every server worker concurrently, and queries from the admin
// channel never block them. A query may observe a slot mid-update —
// windowed statistics are approximate by nature and the error is
// bounded by one in-flight observation per mutator thread.
//
// Time is an explicit `now_us` argument (microseconds on the
// obs::trace_now_us() clock) rather than an internal clock read, so
// tests drive the windows with a fake clock and the server stamps one
// clock read per request across every structure it updates.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"

namespace tmm::obs {

/// Windowed event counter: add() lands in the current 1 s slot,
/// sum()/rate() merge the slots covering the trailing window.
class WindowedCounter {
 public:
  /// Retains `num_slots` seconds of history; windows longer than the
  /// retention are clamped to it.
  explicit WindowedCounter(std::size_t num_slots = 330);

  void add(std::uint64_t now_us, std::uint64_t delta = 1) noexcept;

  /// Total events in the trailing `window_s` seconds (the current
  /// partial second counts in full).
  std::uint64_t sum(std::uint64_t now_us, double window_s) const noexcept;

  /// sum() divided by the window length, events per second.
  double rate(std::uint64_t now_us, double window_s) const noexcept;

 private:
  struct Slot {
    /// Second-granularity epoch this slot currently holds, or
    /// kRecycling while a claimant zeroes it; -1 = never used.
    std::atomic<std::int64_t> epoch{-1};
    std::atomic<std::uint64_t> count{0};
  };
  Slot* slot_for(std::int64_t epoch) noexcept;

  std::vector<Slot> slots_;
};

/// Windowed histogram over fixed bucket bounds (ascending upper bounds
/// plus an implicit overflow bucket, as obs::Histogram).
class WindowedHistogram {
 public:
  explicit WindowedHistogram(std::span<const double> bounds,
                             std::size_t num_slots = 330);

  void observe(std::uint64_t now_us, double v) noexcept;

  /// Merged view of the trailing window.
  struct Snapshot {
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double window_s = 0.0;

    double mean() const noexcept {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  Snapshot snapshot(std::uint64_t now_us, double window_s) const;

  /// Estimated q-quantile of the trailing window (bucket
  /// interpolation, as obs::Histogram::quantile).
  double quantile(std::uint64_t now_us, double window_s, double q) const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }

 private:
  struct Slot {
    explicit Slot(std::size_t num_bounds) : data(num_bounds) {}
    std::atomic<std::int64_t> epoch{-1};
    AtomicBuckets data;
  };
  Slot* slot_for(std::int64_t epoch) noexcept;

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace tmm::obs
