#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "util/atomic_io.hpp"
#include "util/instrument.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"

namespace tmm::obs {

namespace {

// Invariant: g_tracing is a pure on/off flag; the per-thread buffer
// mutexes order the event data itself, so relaxed loads/stores suffice
// (a span racing a toggle merely lands on one side of it).
std::atomic<bool> g_tracing{false};

const util::lockorder::LockClass kTraceRegistryClass("obs.trace.registry");
const util::lockorder::LockClass kTraceBufferClass("obs.trace.buffer");

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

struct TraceEvent {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t depth = 0;  // spans: nesting level at start
  char phase = 'X';  // 'X' complete span, 'C' counter sample
  bool has_arg = false;
  std::string arg_name;
  double arg_value = 0.0;
};

/// One buffer per thread. Appends come only from the owning thread;
/// the mutex makes export/reset from another thread race-free without
/// contending the hot path (the owner's lock is almost always
/// uncontended).
/// Lock order: obs.trace.registry before obs.trace.buffer (export and
/// reset hold the registry lock while visiting each buffer); `tid` is
/// written once at registration, then read-only.
struct ThreadBuffer {
  util::Mutex mu{kTraceBufferClass};
  std::vector<TraceEvent> events TMM_GUARDED_BY(mu);
  std::uint32_t tid = 0;
};

struct Registry {
  util::Mutex mu{kTraceRegistryClass};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers TMM_GUARDED_BY(mu);
  std::uint32_t next_tid TMM_GUARDED_BY(mu) = 1;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: threads may outlive main
  return *r;
}

/// Traced spans open on this thread: the depth of the next one.
thread_local std::uint32_t t_span_depth = 0;

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    util::MutexLock lock(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void append(TraceEvent ev) {
  ThreadBuffer& buf = local_buffer();
  util::MutexLock lock(buf.mu);
  buf.events.push_back(std::move(ev));
}

void write_event(std::ostream& os, const TraceEvent& ev, std::uint32_t tid) {
  os << "{\"name\":" << util::json_quoted(ev.name)
     << ",\"cat\":\"tmm\",\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":"
     << tid << ",\"ts\":" << ev.ts_us;
  if (ev.phase == 'X') os << ",\"dur\":" << ev.dur_us;
  if (ev.phase == 'C') {
    os << ",\"args\":{\"value\":" << ev.arg_value << "}";
  } else if (ev.has_arg) {
    os << ",\"args\":{" << util::json_quoted(ev.arg_name) << ":"
       << ev.arg_value << "}";
  }
  os << "}";
}

}  // namespace

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept {
  if (on) trace_epoch();  // pin the epoch before the first span
  g_tracing.store(on, std::memory_order_relaxed);
}

void reset_trace() {
  Registry& r = registry();
  util::MutexLock lock(r.mu);
  for (auto& buf : r.buffers) {
    util::MutexLock buf_lock(buf->mu);
    buf->events.clear();
  }
}

std::size_t trace_event_count() {
  Registry& r = registry();
  util::MutexLock lock(r.mu);
  std::size_t n = 0;
  for (auto& buf : r.buffers) {
    util::MutexLock buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::uint64_t trace_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

namespace detail {

std::uint32_t span_begin() noexcept { return t_span_depth++; }

void span_end(const char* name, std::uint64_t start_us, std::uint32_t depth,
              const char* arg_name, double arg_value, bool has_arg) {
  t_span_depth = depth;
  TraceEvent ev;
  ev.name = name;
  ev.ts_us = start_us;
  ev.depth = depth;
  const std::uint64_t now = trace_now_us();
  ev.dur_us = now > start_us ? now - start_us : 0;
  ev.phase = 'X';
  if (has_arg) {
    ev.has_arg = true;
    ev.arg_name = arg_name;
    ev.arg_value = arg_value;
  }
  append(std::move(ev));
}

std::vector<SpanTotal> closed_children(std::uint32_t depth) {
  ThreadBuffer& buf = local_buffer();
  util::MutexLock lock(buf.mu);
  const std::vector<TraceEvent>& events = buf.events;
  // The parent is still open, so every span this thread closed at a
  // shallower level closed before the parent started: the children are
  // the spans at `depth` after the last such event.
  std::size_t first = events.size();
  while (first > 0 && !(events[first - 1].phase == 'X' &&
                        events[first - 1].depth < depth))
    --first;
  std::vector<SpanTotal> out;
  for (std::size_t i = first; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.phase != 'X' || ev.depth != depth) continue;
    const double seconds = static_cast<double>(ev.dur_us) * 1e-6;
    auto it = std::find_if(out.begin(), out.end(), [&](const SpanTotal& t) {
      return t.name == ev.name;
    });
    if (it == out.end())
      out.push_back({ev.name, seconds});
    else
      it->seconds += seconds;
  }
  return out;
}

void counter_event(const char* name, double value) {
  TraceEvent ev;
  ev.name = name;
  ev.ts_us = trace_now_us();
  ev.phase = 'C';
  ev.arg_value = value;
  append(std::move(ev));
}

}  // namespace detail

void trace_rss_sample() {
  if (!tracing_enabled()) return;
  detail::counter_event(
      "rss_mb", static_cast<double>(current_rss_bytes()) / (1024.0 * 1024.0));
}

void write_chrome_trace(std::ostream& os) {
  Registry& r = registry();
  util::MutexLock lock(r.mu);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (auto& buf : r.buffers) {
    util::MutexLock buf_lock(buf->mu);
    for (const TraceEvent& ev : buf->events) {
      if (!first) os << ",\n";
      first = false;
      write_event(os, ev, buf->tid);
    }
  }
  os << "]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  // Atomic write: a run killed while flushing its trace must not leave
  // a truncated JSON at the final path. This writer is on the never-
  // throws contract of the CLI epilogue, so injected faults degrade to
  // a false return instead of propagating.
  try {
    std::ostringstream buf;
    write_chrome_trace(buf);
    return util::atomic_write_file(path, buf.str()).ok();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace tmm::obs
