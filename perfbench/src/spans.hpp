#pragma once
// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// the libraries' public functions (named "<module>.<what>", e.g.
// "gnn.train"); the libraries are not instrumented by it. Spans are kept
// in memory, tagged with the body repetition, and written out as Chrome
// trace JSON at the end. Only the timed body is traced, and only the main
// thread records; spans nest strictly.

#include <cstdint>
#include <map>
#include <string>

namespace pb::trace {

void enable(bool on);

/// Tags every span and count recorded from now on with a body
/// repetition.
void set_rep(int rep);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  long index_ = -1;
};

/// Adds `v` to the named count of the current repetition.
void count(const std::string& name, double v);

struct Layer {
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< minus the time child spans cover
  double calls = 0.0;
};

struct Totals {
  std::map<std::string, Layer> spans;    ///< by span name
  std::map<std::string, Layer> modules;  ///< by name prefix before '.'
  std::map<std::string, double> counts;
  double wall_s = 0.0;  ///< time covered by top-level spans
};

/// Every recorded repetition, median per key.
Totals body_totals();

/// Writes every recorded span as Chrome trace-event JSON.
void write_chrome_json(const std::string& path);

}  // namespace pb::trace
