#pragma once
// Flow-wide tracing: RAII scoped spans collected into per-thread
// buffers and exported as Chrome trace-event JSON, loadable by
// chrome://tracing and https://ui.perfetto.dev.
//
// Tracing is off by default. A disabled Span costs exactly one relaxed
// atomic load and a branch — no clock read, no allocation — so the
// pipeline stays permanently instrumented (see BM_ObsSpanDisabled in
// bench/bench_micro.cpp for the measured cost). Span names follow the
// `layer.operation` convention documented in docs/OBSERVABILITY.md.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tmm::obs {

/// Global tracing switch; read with one relaxed atomic load.
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Drop every buffered event (tests and repeated CLI runs).
void reset_trace();

/// Number of buffered events across all threads.
std::size_t trace_event_count();

/// Microseconds since the process-wide trace epoch (steady clock).
std::uint64_t trace_now_us() noexcept;

/// One named stage of a run and its wall-clock time: every closed span
/// of that name under one parent, summed (Span::closed_children).
struct SpanTotal {
  std::string name;
  double seconds = 0.0;
};

namespace detail {
// Opens one nesting level on the calling thread; returns the depth the
// new span sits at (0 = outermost).
std::uint32_t span_begin() noexcept;
// Records one complete ("X") event and closes its nesting level; called
// from ~Span with the start timestamp and depth captured at
// construction.
void span_end(const char* name, std::uint64_t start_us, std::uint32_t depth,
              const char* arg_name, double arg_value, bool has_arg);
std::vector<SpanTotal> closed_children(std::uint32_t depth);
void counter_event(const char* name, double value);
}  // namespace detail

/// RAII scoped span. Nesting is expressed by lifetime: a span that
/// begins and ends inside another renders nested in the trace viewer
/// (Chrome "X" complete events on the same thread track). Each span also
/// records its nesting depth, so a parent and a child that start in the
/// same microsecond stay apart.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_enabled()) {
      name_ = name;
      depth_ = detail::span_begin();
      start_us_ = trace_now_us();
    }
  }
  ~Span() {
    if (name_ != nullptr)
      detail::span_end(name_, start_us_, depth_, arg_name_, arg_value_,
                       has_arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach one numeric argument shown under the span in the viewer
  /// (e.g. a loss value or a pin count). Last call wins.
  void set_arg(const char* key, double value) noexcept {
    if (name_ == nullptr) return;
    arg_name_ = key;
    arg_value_ = value;
    has_arg_ = true;
  }

  /// The spans this thread has closed one level below this one, in the
  /// order they closed, with the same names summed: a run's per-stage
  /// wall-clock breakdown. Empty when this span is not traced; with
  /// tracing off it costs one atomic load.
  std::vector<SpanTotal> closed_children() const {
    if (!tracing_enabled() || name_ == nullptr) return {};
    return detail::closed_children(depth_ + 1);
  }

 private:
  const char* name_ = nullptr;  ///< nullptr == span disabled at entry
  const char* arg_name_ = nullptr;
  std::uint64_t start_us_ = 0;
  double arg_value_ = 0.0;
  std::uint32_t depth_ = 0;
  bool has_arg_ = false;
};

/// Record a Chrome "C" counter sample (rendered as a stacked chart).
inline void trace_counter(const char* name, double value) {
  if (tracing_enabled()) detail::counter_event(name, value);
}

/// Sample the current resident set size as a "rss_mb" counter event.
void trace_rss_sample();

/// Serialize every buffered event as Chrome trace-event JSON.
void write_chrome_trace(std::ostream& os);

/// Convenience: write_chrome_trace to `path`; returns false on I/O error.
bool write_chrome_trace_file(const std::string& path);

}  // namespace tmm::obs
