#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "util/atomic_io.hpp"
#include "util/instrument.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"

namespace tmm::obs {

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), core_(bounds.size()) {
  std::sort(bounds_.begin(), bounds_.end());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(core_.buckets.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = core_.buckets[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  return quantile_from_buckets(bounds_, bucket_counts(), q);
}

double quantile_from_buckets(std::span<const double> bounds,
                             std::span<const std::uint64_t> buckets,
                             double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based; walk buckets until the
  // cumulative count reaches it.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) < rank) continue;
    if (i >= bounds.size())  // overflow bucket: no upper edge to lerp to
      return bounds.empty() ? 0.0 : bounds.back();
    const double hi = bounds[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds[i - 1];
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> log_spaced_bounds(double lo, double hi, int per_decade) {
  std::vector<double> bounds;
  if (!(lo > 0.0) || !(hi > lo) || per_decade < 1) return bounds;
  const double step = std::pow(10.0, 1.0 / per_decade);
  for (double b = lo; b < hi * step; b *= step) bounds.push_back(b);
  return bounds;
}

namespace {

const util::lockorder::LockClass kRegistryLockClass("obs.metrics.registry");

/// Name -> metric maps. The mutex guards only registration/lookup and
/// snapshotting; mutation goes through the atomics inside each metric
/// (metric references escape the lock by design — they are immortal
/// and internally lock-free).
struct RegistryImpl {
  util::Mutex mu{kRegistryLockClass};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      TMM_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      TMM_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      TMM_GUARDED_BY(mu);
};

RegistryImpl& registry() {
  static RegistryImpl* r = new RegistryImpl();  // leaked: see trace.cpp
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  RegistryImpl& r = registry();
  util::MutexLock lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end())
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  RegistryImpl& r = registry();
  util::MutexLock lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end())
    it = r.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& histogram(std::string_view name, std::span<const double> bounds) {
  RegistryImpl& r = registry();
  util::MutexLock lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end())
    it = r.histograms
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  return *it->second;
}

void write_metrics_json(std::ostream& os) {
  RegistryImpl& r = registry();
  util::MutexLock lock(r.mu);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : r.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << util::json_quoted(name);
    os << ": " << c->value();
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : r.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << util::json_quoted(name);
    os << ": " << g->value();
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : r.histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << util::json_quoted(name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h->bounds().size(); ++i)
      os << (i ? "," : "") << h->bounds()[i];
    os << "], \"buckets\": [";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i)
      os << (i ? "," : "") << counts[i];
    os << "], \"count\": " << h->count() << ", \"sum\": " << h->sum()
       << ", \"p50\": " << h->quantile(0.50)
       << ", \"p95\": " << h->quantile(0.95)
       << ", \"p99\": " << h->quantile(0.99)
       << ", \"p999\": " << h->quantile(0.999) << "}";
  }
  os << "\n  },\n  \"process\": {\n    \"current_rss_bytes\": "
     << current_rss_bytes()
     << ",\n    \"peak_rss_bytes\": " << peak_rss_bytes() << "\n  }\n}\n";
}

bool write_metrics_json_file(const std::string& path) {
  // Atomic write; never throws (CLI epilogue contract) — injected
  // faults degrade to a false return.
  try {
    std::ostringstream buf;
    write_metrics_json(buf);
    return util::atomic_write_file(path, buf.str()).ok();
  } catch (const std::exception&) {
    return false;
  }
}

void reset_metrics() {
  RegistryImpl& r = registry();
  util::MutexLock lock(r.mu);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

}  // namespace tmm::obs
