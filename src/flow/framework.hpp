#pragma once
// The end-to-end GNN-based timing macro modeling framework (Fig. 4):
//
//   stage 1  timing-sensitivity data generation on small training
//            designs (filter + TS evaluation, Fig. 8);
//   stage 2  GNN training (GraphSAGE by default) and prediction of
//            timing-variant pins on unseen designs;
//   stage 3  macro model generation (ILM -> merging -> index selection,
//            Fig. 9) and accuracy evaluation against the flat design.
//
// The same class also drives the baselines and the Table 4/6 ablations
// (is_CPPR feature on/off; label-all-remained-pins).

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gnn/features.hpp"
#include "gnn/trainer.hpp"
#include "macro/baselines.hpp"
#include "macro/evaluate.hpp"
#include "macro/model_io.hpp"
#include "netlist/design.hpp"
#include "obs/trace.hpp"
#include "sensitivity/training_data.hpp"

namespace tmm {

/// Settings of one flow. The Framework constructor derives six nested
/// fields from top-level ones: `data.ts.cppr` and `data.cppr_labels`
/// from `cppr`, `data.ts.merge.aocv` and `merge.aocv` from `aocv`, and
/// `data.ts.threads` and `train.threads` from `threads`. Setting one of
/// those nested fields directly has no effect; set the top-level one
/// (one place per setting is an open ROADMAP item).
struct FlowConfig {
  /// Timing mode: CPPR on (Tables 3-4) or off (Table 5).
  bool cppr = true;
  /// Advanced timing mode (AOCV depth-based derating); the whole
  /// pipeline — TS data generation, merging, evaluation — follows it.
  AocvConfig aocv;
  /// Include the dedicated is_CPPR feature (Table 4 ablation).
  bool cppr_feature = true;
  /// Bypass the GNN and keep every pin the filter remained (Table 6).
  bool label_all_remained = false;

  /// Treat the prediction as a regression problem (Section 5.3): train
  /// on normalized TS magnitudes instead of {0,1} labels, so the model
  /// also captures relative criticality between pins.
  bool regression = false;

  TrainingDataConfig data;
  GnnModelConfig gnn;
  TrainConfig train;
  MergeConfig merge;
  /// Probability threshold above which a pin is kept (classification).
  float keep_threshold = 0.5f;
  /// Predicted-criticality threshold above which a pin is kept
  /// (regression mode).
  float regression_keep_threshold = 0.05f;

  std::size_t eval_constraint_sets = 4;
  ConstraintGenConfig eval_constraint_gen;
  std::uint64_t eval_seed = 0xE7A1;

  /// FNV-1a hash of the liberty library's canonical serialization,
  /// folded into the checkpoint fingerprint so resuming against a
  /// swapped library invalidates the checkpoint instead of silently
  /// reusing TS labels computed under different cell timing.
  /// Framework::train fills it from the training designs' library;
  /// 0 = not yet known.
  std::uint64_t library_fingerprint = 0;

  /// Checkpoint/resume directory (docs/ROBUSTNESS.md): when non-empty,
  /// per-design sensitivity data and the trained model persist there
  /// incrementally (atomic writes), and train() resumes from whatever
  /// is already present — bit-identically. Empty = disabled.
  std::string checkpoint_dir;

  /// Run the static invariant checker (src/analysis) after each macro
  /// generation stage — ILM capture, merging/index selection, final
  /// model — and throw std::runtime_error with the full diagnostic
  /// report when any error-severity rule fires. Off by default: it adds
  /// one full graph sweep per stage.
  bool validate_stages = false;

  /// Worker threads for the compute-heavy stages: the TS labeling loop
  /// (per-pin re-analyses fanned over the shared pool), GNN training (one
  /// sample's forward/backward pass per task, gradients added in sample
  /// order), and in macro generation the composition of merged arcs (one
  /// chain per task, owned and observed in chain order), the accuracy
  /// runs (a contiguous range of constraint sets per thread, reduced in
  /// set order) and the model-size count (interleaved blocks of arc
  /// records per thread). All are bit-identical to serial — see
  /// docs/PERFORMANCE.md.
  /// 0 = auto (TMM_THREADS when set, else hardware concurrency),
  /// 1 = serial, N = at most N. Plumbed from the tmm CLI's --threads
  /// flag.
  std::size_t threads = 0;
};

/// Everything the experiment tables report about one design.
struct DesignResult {
  std::string design;
  MacroModel model;
  GenerationStats gen;
  AccuracyReport acc;
  std::size_t model_file_bytes = 0;
  double inference_seconds = 0.0;  ///< GNN prediction time (0 for baselines)
  std::size_t usage_peak_rss = 0;
  /// In-memory footprint of the loaded model graph ("Usage Memory").
  std::size_t model_memory_bytes = 0;
  /// Wall-clock breakdown of the run: the spans directly under its root
  /// span (docs/OBSERVABILITY.md), e.g. sta.graph_build, macro.ilm,
  /// gnn.infer, macro.merge, macro.size, macro.evaluate. Empty when
  /// tracing is off.
  std::vector<obs::SpanTotal> stage_timings;
};

/// One skipped design and why (per-design isolation: a failing design
/// must not take the rest of the flow down with it).
struct DesignFailure {
  std::string design;
  std::string error;
};

struct TrainingSummary {
  TrainReport report;
  std::size_t designs = 0;  ///< designs successfully ingested
  std::size_t labeled_pins = 0;
  std::size_t positives = 0;
  double mean_filtered_fraction = 0.0;
  /// Degradation accounting (docs/ROBUSTNESS.md). `failed`: designs
  /// skipped entirely (their data contributed nothing). `degraded`:
  /// designs ingested with failed pins / skipped constraint sets
  /// (conservative fallbacks applied). Training throws
  /// fault::FlowError(kUnavailable) only when *every* design failed.
  std::vector<DesignFailure> failed;
  std::vector<std::string> degraded;
  /// Resume accounting: stages restored from FlowConfig::checkpoint_dir
  /// instead of recomputed.
  std::size_t designs_from_checkpoint = 0;
  bool model_from_checkpoint = false;
  /// Wall-clock breakdown: the spans directly under flow.train, one
  /// flow.train.design:<name> per training design, then gnn.train.
  /// Empty when tracing is off.
  std::vector<obs::SpanTotal> stage_timings;
};

class Framework {
 public:
  explicit Framework(FlowConfig cfg = {});

  const FlowConfig& config() const noexcept { return cfg_; }

  /// Stage 1 + 2: generate sensitivity data for each training design
  /// and fit the GNN.
  TrainingSummary train(std::span<const Design> designs);

  /// True once a model has been trained or loaded.
  bool trained() const noexcept { return gnn_.has_value(); }
  GnnModel& model() { return *gnn_; }
  /// Throws fault::FlowError(kConfig) when the model's input width is
  /// not this flow's feature count (FlowConfig::cppr_feature).
  void set_model(GnnModel model);

  /// Predict the keep-set for an ILM graph (stage 2 inference).
  std::vector<bool> predict_keep(const TimingGraph& ilm,
                                 double* inference_seconds = nullptr);

  /// Stage 3 on a test design: generate the macro model and evaluate it
  /// against the flat design.
  DesignResult run_design(const Design& design);

  /// Baseline runs through the identical evaluation harness.
  DesignResult run_itimerm(const Design& design);
  DesignResult run_libabs(const Design& design);
  DesignResult run_etm(const Design& design, const EtmConfig& cfg = {});

  /// Normalization scale for regression targets (p95 of positive TS
  /// over the training set); 1.0 until trained in regression mode.
  double ts_scale() const noexcept { return ts_scale_; }

 private:
  std::vector<BoundaryConstraints> eval_sets(const Design& design) const;
  DesignResult evaluate(const Design& design, const TimingGraph& flat,
                        MacroModel model, GenerationStats gen) const;
  /// One baseline run under its entry point's root span: build the flat
  /// graph, `generate` the model, evaluate it.
  using BaselineGenerator =
      std::function<MacroModel(const TimingGraph&, GenerationStats*)>;
  DesignResult run_baseline(const obs::Span& root, const Design& design,
                            const BaselineGenerator& generate) const;

  /// Features per pin the flow extracts: the GNN's input width.
  std::size_t feature_count() const noexcept;

  FlowConfig cfg_;
  std::optional<GnnModel> gnn_;
  double ts_scale_ = 1.0;
};

}  // namespace tmm
