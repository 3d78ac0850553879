#pragma once
// Shared harness for the table/figure reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper on
// scaled-down synthetic TAU-style designs (see DESIGN.md for the
// substitution rationale). Scales are overridable via environment
// variables so the suite stays CI-friendly by default:
//   TMM_TEST_SCALE   divisor applied to TAU pin counts   (default per bench)
//   TMM_TRAIN_SCALE  divisor for the training designs    (default 10)

#include <cstdlib>
#include <string>
#include <vector>

#include "flow/framework.hpp"
#include "liberty/library_gen.hpp"
#include "netlist/design_gen.hpp"
#include "util/table.hpp"

namespace tmm::bench {

inline std::size_t env_scale(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

/// Train a framework on the scaled training suite and report progress.
TrainingSummary train_framework(Framework& fw, std::size_t train_scale);

/// Per-design row data shared by Tables 3-5.
struct Row {
  std::string design;
  DesignResult result;
};

/// Generate the design for a suite entry.
Design make_design(const SuiteEntry& entry);

/// Format helpers for the table columns.
std::string fmt_err(double ps);
std::string fmt_size_kb(std::size_t bytes);
std::string fmt_seconds(double s);
std::string fmt_mb(std::size_t bytes);

/// Geometric-mean ratio of baseline/ours over rows (the paper's "Ratio"
/// summary lines).
double mean_ratio(const std::vector<double>& baseline,
                  const std::vector<double>& ours);

/// Machine-readable companion to the ASCII tables. Each bench binary
/// accumulates its per-row numbers here and calls write(), producing
/// `BENCH_<name>.json` in the working directory (overridable with
/// TMM_BENCH_JSON_DIR) so CI and plotting scripts never have to scrape
/// the human-oriented table output. Schema: docs/OBSERVABILITY.md.
///
/// The `stages` of a row are the run's span breakdown
/// (DesignResult::stage_timings), so benches that report them turn obs
/// tracing on first. Adding a result or a training drops the buffered
/// trace events: a long bench holds the spans of one run at a time.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Run parameters (scale, train_scale, ...).
  void set_meta(const std::string& key, double value);

  /// Training-phase record; `label` distinguishes multiple trainings in
  /// one bench (e.g. Table 4's before/after variants).
  void add_training(const std::string& label, const TrainingSummary& sum);

  /// Full DesignResult row: accuracy, size, runtime, memory and the
  /// per-stage wall-clock breakdown.
  void add_result(const std::string& design, const std::string& impl,
                  const DesignResult& r);

  /// Free-form numeric row for benches without DesignResults (Table 2).
  void add_row(const std::string& design, const std::string& impl,
               std::vector<std::pair<std::string, double>> metrics);

  /// Cross-row aggregates (the "Ratio" lines).
  void set_summary(const std::string& key, double value);

  /// Write BENCH_<name>.json; returns false (with a log line) on I/O
  /// failure so a read-only CWD does not kill the bench itself.
  bool write() const;

 private:
  struct RowRec {
    std::string design;
    std::string impl;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<obs::SpanTotal> stages;
  };
  struct TrainingRec {
    std::string label;
    TrainingSummary sum;
  };

  std::string name_;
  std::vector<std::pair<std::string, double>> meta_;
  std::vector<TrainingRec> trainings_;
  std::vector<RowRec> rows_;
  std::vector<std::pair<std::string, double>> summary_;
};

}  // namespace tmm::bench
