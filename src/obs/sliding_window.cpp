#include "obs/sliding_window.hpp"

#include <algorithm>
#include <limits>

namespace tmm::obs {

namespace {

constexpr std::int64_t kSlotUs = 1'000'000;  ///< 1 s slot granularity
constexpr std::int64_t kRecycling = std::numeric_limits<std::int64_t>::min();

std::int64_t epoch_of(std::uint64_t now_us) noexcept {
  return static_cast<std::int64_t>(now_us / kSlotUs);
}

/// Move `slot_epoch` to epoch `e`, zeroing the slot's payload through
/// `zero` when this thread wins the recycle race. Returns false when
/// the caller's clock is behind the slot (another thread already
/// recycled it for a later second) — the observation is dropped rather
/// than written into the wrong window.
template <typename ZeroFn>
bool claim_slot(std::atomic<std::int64_t>& slot_epoch, std::int64_t e,
                ZeroFn zero) noexcept {
  for (;;) {
    std::int64_t cur = slot_epoch.load(std::memory_order_acquire);
    if (cur == e) return true;
    if (cur > e && cur != kRecycling) return false;
    if (cur == kRecycling) continue;  // claimant is zeroing; brief spin
    if (slot_epoch.compare_exchange_weak(cur, kRecycling,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      zero();
      slot_epoch.store(e, std::memory_order_release);
      return true;
    }
  }
}

/// Number of whole slots a `window_s` query merges, clamped to the
/// ring (at least the current slot).
std::int64_t slots_in_window(double window_s, std::size_t num_slots) noexcept {
  const double capped = std::clamp(window_s, 1.0, static_cast<double>(num_slots));
  return static_cast<std::int64_t>(capped + 0.5);
}

}  // namespace

// ------------------------------------------------------- WindowedCounter

WindowedCounter::WindowedCounter(std::size_t num_slots)
    : slots_(std::max<std::size_t>(num_slots, 2)) {}

WindowedCounter::Slot* WindowedCounter::slot_for(std::int64_t epoch) noexcept {
  return &slots_[static_cast<std::size_t>(epoch) % slots_.size()];
}

void WindowedCounter::add(std::uint64_t now_us, std::uint64_t delta) noexcept {
  const std::int64_t e = epoch_of(now_us);
  Slot* s = slot_for(e);
  if (!claim_slot(s->epoch, e,
                  [&] { s->count.store(0, std::memory_order_relaxed); }))
    return;
  s->count.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t WindowedCounter::sum(std::uint64_t now_us,
                                   double window_s) const noexcept {
  const std::int64_t e_now = epoch_of(now_us);
  const std::int64_t n = slots_in_window(window_s, slots_.size());
  std::uint64_t total = 0;
  for (std::int64_t e = e_now - n + 1; e <= e_now; ++e) {
    if (e < 0) continue;
    const Slot& s = slots_[static_cast<std::size_t>(e) % slots_.size()];
    if (s.epoch.load(std::memory_order_acquire) != e) continue;
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double WindowedCounter::rate(std::uint64_t now_us,
                             double window_s) const noexcept {
  const std::int64_t n = slots_in_window(window_s, slots_.size());
  return static_cast<double>(sum(now_us, window_s)) /
         static_cast<double>(n);
}

// ----------------------------------------------------- WindowedHistogram

WindowedHistogram::WindowedHistogram(std::span<const double> bounds,
                                     std::size_t num_slots)
    : bounds_(bounds.begin(), bounds.end()) {
  std::sort(bounds_.begin(), bounds_.end());
  const std::size_t n = std::max<std::size_t>(num_slots, 2);
  slots_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    slots_.push_back(std::make_unique<Slot>(bounds_.size()));
}

WindowedHistogram::Slot* WindowedHistogram::slot_for(
    std::int64_t epoch) noexcept {
  return slots_[static_cast<std::size_t>(epoch) % slots_.size()].get();
}

void WindowedHistogram::observe(std::uint64_t now_us, double v) noexcept {
  const std::int64_t e = epoch_of(now_us);
  Slot* s = slot_for(e);
  if (claim_slot(s->epoch, e, [&] { s->data.clear(); }))
    s->data.observe(bounds_, v);
}

WindowedHistogram::Snapshot WindowedHistogram::snapshot(
    std::uint64_t now_us, double window_s) const {
  const std::int64_t e_now = epoch_of(now_us);
  const std::int64_t n = slots_in_window(window_s, slots_.size());
  Snapshot snap;
  snap.buckets.assign(bounds_.size() + 1, 0);
  snap.window_s = static_cast<double>(n);
  std::vector<std::uint64_t> tmp(snap.buckets.size());
  for (std::int64_t e = e_now - n + 1; e <= e_now; ++e) {
    if (e < 0) continue;
    const Slot& s = *slots_[static_cast<std::size_t>(e) % slots_.size()];
    if (s.epoch.load(std::memory_order_acquire) != e) continue;
    for (std::size_t b = 0; b < tmp.size(); ++b)
      tmp[b] = s.data.buckets[b].load(std::memory_order_relaxed);
    const std::uint64_t count = s.data.count.load(std::memory_order_relaxed);
    const double sum = s.data.sum.load(std::memory_order_relaxed);
    // A slot recycled for a later second mid-read would mix windows:
    // merge only after re-validating the epoch (dropping a racing slot
    // loses at most one second of a 300 s window).
    if (s.epoch.load(std::memory_order_acquire) != e) continue;
    for (std::size_t b = 0; b < tmp.size(); ++b) snap.buckets[b] += tmp[b];
    snap.count += count;
    snap.sum += sum;
  }
  return snap;
}

double WindowedHistogram::quantile(std::uint64_t now_us, double window_s,
                                   double q) const {
  const Snapshot snap = snapshot(now_us, window_s);
  return quantile_from_buckets(bounds_, snap.buckets, q);
}

}  // namespace tmm::obs
