#pragma once
// The offline pipelines the benchmark times, each in two forms:
//
//   *_plain   the calls `tmm train` / `tmm generate` make, untraced
//             (Framework::train, Framework::run_design);
//   *_traced  the same work composed by the benchmark from each module's
//             public functions, with a span around every call.
//
// The two forms must produce byte-identical outputs; the workloads
// compare them on every traced run.

#include <cstdint>
#include <string>
#include <vector>

#include "flow/framework.hpp"

namespace pb {

/// Offline configuration: the library defaults with a fixed worker
/// count of 2 (FlowConfig::threads), not auto.
tmm::FlowConfig offline_config();

struct TrainOutcome {
  std::string weights;  ///< GnnModel::save bytes
  tmm::TrainReport report;
  std::size_t designs = 0;
  std::size_t labeled_pins = 0;
  std::size_t positives = 0;
  std::size_t failed = 0;    ///< designs skipped
  std::size_t degraded = 0;  ///< designs with conservative fallbacks
};

/// `tmm train`: load each .dsn, Framework::train, serialize the model.
TrainOutcome train_plain(const tmm::FlowConfig& cfg,
                         const std::vector<std::string>& dsn_paths);
TrainOutcome train_traced(const tmm::FlowConfig& cfg,
                          const std::vector<std::string>& dsn_paths);

/// Compares everything both forms expose; returns "" when identical.
std::string diff_train(const TrainOutcome& a, const TrainOutcome& b);

struct GenOutcome {
  std::string design;
  std::size_t design_pins = 0;
  std::size_t model_pins = 0;
  std::size_t model_file_bytes = 0;  ///< macro_model_size_bytes
  std::size_t written_bytes = 0;     ///< write_macro_model_file
  std::uint64_t file_hash = 0;       ///< FNV-1a of the written file
  tmm::AccuracyReport acc;
};

/// `tmm generate` for one input: load_design_any, run_design,
/// write_macro_model_file. `fw` holds the trained model.
GenOutcome generate_plain(tmm::Framework& fw, const std::string& in,
                          const std::string& out);
GenOutcome generate_traced(const tmm::FlowConfig& cfg, tmm::GnnModel& model,
                           const std::string& in, const std::string& out);

std::string diff_generate(const GenOutcome& a, const GenOutcome& b);

/// A Framework holding the model serialized in `weights`.
tmm::Framework framework_with(const tmm::FlowConfig& cfg,
                              const std::string& weights);
tmm::GnnModel load_weights(const std::string& weights);

/// Median nanoseconds per graph node of one Sta::run over `g` with
/// `threads` workers.
double sta_ns_per_node(const tmm::TimingGraph& g, std::size_t threads,
                       bool cppr);

}  // namespace pb
