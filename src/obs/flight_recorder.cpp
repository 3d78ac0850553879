#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "util/atomic_io.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"

namespace tmm::obs {

namespace {

constexpr std::size_t kWordsPerRecord =
    sizeof(FlightRecord) / sizeof(std::uint64_t);

const util::lockorder::LockClass kFlightRegistryClass("obs.flightrec.registry");

/// One ring per thread. The owning thread is the only writer; drains
/// read concurrently through the per-slot seqlock:
///   writer:  slot_seq += 1 (odd)  -> store words -> slot_seq += 1 (even)
///   reader:  s1 = slot_seq (acquire); copy words; fence; s2 = slot_seq
///            — keep the copy only when s1 == s2 and s1 is even.
/// slot_seq is monotonic per slot, so a wrap-around overwrite between
/// the reader's two loads always changes the value and the torn copy is
/// discarded. All word accesses are relaxed atomics: TSan-clean without
/// any lock on the record path.
struct Ring {
  explicit Ring(std::size_t capacity)
      : cap(capacity), words(capacity * kWordsPerRecord), seqs(capacity) {}

  const std::size_t cap;
  std::vector<std::atomic<std::uint64_t>> words;
  std::vector<std::atomic<std::uint64_t>> seqs;  ///< per-slot seqlock
  /// Records ever written by this ring; slot = head % cap. Published
  /// with release so a drain that reads it (acquire) sees every fully
  /// written slot below it.
  std::atomic<std::uint64_t> head{0};

  void write(const FlightRecord& rec) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::size_t slot = static_cast<std::size_t>(h % cap);
    std::atomic<std::uint64_t>& sq = seqs[slot];
    sq.store(sq.load(std::memory_order_relaxed) + 1,
             std::memory_order_release);  // odd: write in progress
    std::uint64_t tmp[kWordsPerRecord];
    std::memcpy(tmp, &rec, sizeof rec);
    std::atomic<std::uint64_t>* w = words.data() + slot * kWordsPerRecord;
    for (std::size_t i = 0; i < kWordsPerRecord; ++i)
      w[i].store(tmp[i], std::memory_order_relaxed);
    sq.store(sq.load(std::memory_order_relaxed) + 1,
             std::memory_order_release);  // even: slot consistent
    head.store(h + 1, std::memory_order_release);
  }

  /// Copy slot `slot` into `out`; false when the slot is mid-write or
  /// overwritten during the copy (caller retries or skips).
  bool read(std::size_t slot, FlightRecord& out) const noexcept {
    const std::atomic<std::uint64_t>& sq = seqs[slot];
    const std::uint64_t s1 = sq.load(std::memory_order_acquire);
    if (s1 % 2 != 0) return false;
    std::uint64_t tmp[kWordsPerRecord];
    const std::atomic<std::uint64_t>* w =
        words.data() + slot * kWordsPerRecord;
    // Acquire word loads pin the seq re-check after every data load
    // (an acquire fence would be tidier, but GCC's TSan rejects
    // atomic_thread_fence); this is the drain path, never the hot one.
    for (std::size_t i = 0; i < kWordsPerRecord; ++i)
      tmp[i] = w[i].load(std::memory_order_acquire);
    if (sq.load(std::memory_order_relaxed) != s1) return false;
    std::memcpy(&out, tmp, sizeof out);
    return true;
  }
};

struct Recorder {
  util::Mutex mu{kFlightRegistryClass};
  std::vector<std::shared_ptr<Ring>> rings TMM_GUARDED_BY(mu);
  std::size_t capacity TMM_GUARDED_BY(mu) = 256;
  /// Generation bump on reset: threads re-register their ring lazily
  /// so reset_flight_recorder() from one thread empties every ring
  /// without racing other threads' writes.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> next_seq{1};
  std::atomic<std::uint64_t> total{0};
};

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: threads may outlive main
  return *r;
}

Ring& local_ring() {
  struct Handle {
    std::shared_ptr<Ring> ring;
    std::uint64_t generation = 0;
  };
  thread_local Handle h;
  Recorder& r = recorder();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (h.ring == nullptr || h.generation != gen) {
    util::MutexLock lock(r.mu);
    h.ring = std::make_shared<Ring>(r.capacity);
    h.generation = gen;
    r.rings.push_back(h.ring);
  }
  return *h.ring;
}

}  // namespace

namespace detail {

// Invariant: g_flight_enabled is a pure on/off gate; a record racing a
// toggle merely lands on one side of it. The ring seqlocks order the
// record data itself, so relaxed suffices.
std::atomic<bool> g_flight_enabled{false};

void flight_record_slow(const FlightRecord& rec) {
  Recorder& r = recorder();
  FlightRecord stamped = rec;
  stamped.seq = r.next_seq.fetch_add(1, std::memory_order_relaxed);
  r.total.fetch_add(1, std::memory_order_relaxed);
  local_ring().write(stamped);
}

}  // namespace detail

void set_flight_recorder_enabled(bool on, std::size_t per_thread_capacity) {
  Recorder& r = recorder();
  {
    util::MutexLock lock(r.mu);
    if (per_thread_capacity > 0) r.capacity = per_thread_capacity;
  }
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

bool flight_recorder_enabled() noexcept {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

std::vector<FlightRecord> flight_snapshot() {
  Recorder& r = recorder();
  std::vector<std::shared_ptr<Ring>> rings;
  {
    util::MutexLock lock(r.mu);
    rings = r.rings;  // shared_ptr copies: read outside the lock
  }
  std::vector<FlightRecord> out;
  for (const auto& ring : rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(head, ring->cap));
    for (std::size_t i = 0; i < n; ++i) {
      FlightRecord rec;
      if (ring->read(i, rec) && rec.seq != 0) out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t flight_total_recorded() noexcept {
  return recorder().total.load(std::memory_order_relaxed);
}

void reset_flight_recorder() {
  Recorder& r = recorder();
  util::MutexLock lock(r.mu);
  r.rings.clear();
  r.generation.fetch_add(1, std::memory_order_acq_rel);
  r.next_seq.store(1, std::memory_order_relaxed);
  r.total.store(0, std::memory_order_relaxed);
}

void write_flight_dump_json(std::ostream& os) {
  const std::vector<FlightRecord> records = flight_snapshot();
  os << "{\n  \"records_total\": " << flight_total_recorded()
     << ",\n  \"records_retained\": " << records.size()
     << ",\n  \"records\": [";
  bool first = true;
  for (const FlightRecord& rec : records) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << "{\"seq\": " << rec.seq << ", \"request_id\": " << rec.request_id
       << ", \"ts_us\": " << rec.ts_us
       << ", \"model\": " << util::json_quoted(rec.model_str())
       << ", \"status\": " << util::json_quoted(rec.status_str())
       << ", \"kind\": " << rec.kind
       << ", \"cache_hit\": " << ((rec.flags & kFlightCacheHit) != 0 ? 1 : 0);
    if ((rec.flags & kFlightHasDeadline) != 0)
      os << ", \"deadline_slack_ms\": " << rec.deadline_slack_ms;
    os << ", \"parse_us\": " << rec.parse_us
       << ", \"cache_us\": " << rec.cache_us
       << ", \"eval_us\": " << rec.eval_us
       << ", \"write_us\": " << rec.write_us
       << ", \"total_us\": " << rec.total_us << "}";
  }
  os << "\n  ]\n}\n";
}

bool write_flight_dump_file(const std::string& path) {
  try {
    std::ostringstream buf;
    write_flight_dump_json(buf);
    return util::atomic_write_file(path, buf.str()).ok();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace tmm::obs
