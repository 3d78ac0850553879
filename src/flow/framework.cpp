#include "flow/framework.hpp"

#include <stdexcept>

#include "analysis/graph_lint.hpp"
#include "analysis/model_lint.hpp"
#include "fault/fault.hpp"
#include "flow/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sta/propagation.hpp"
#include "util/instrument.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace tmm {

namespace {

// Degradation counters surfaced in --metrics JSON (docs/ROBUSTNESS.md):
// failed = design skipped entirely, degraded = ingested with
// conservative fallbacks (failed pins / skipped constraint sets).
obs::Counter& g_designs_failed = obs::counter("flow.designs_failed");
obs::Counter& g_designs_degraded = obs::counter("flow.designs_degraded");

/// Stage-boundary invariant gate (FlowConfig::validate_stages): a
/// corrupt graph must stop the pipeline where the corruption appeared,
/// not surface as silently wrong boundary timing three stages later.
void validate_stage(bool enabled, const char* stage, const TimingGraph& g) {
  if (!enabled) return;
  const analysis::LintReport report = analysis::lint_graph(g);
  if (!report.clean())
    throw std::runtime_error(std::string("flow: invariant check failed "
                                         "after stage '") +
                             stage + "':\n" + report.to_string());
}

/// The GNN input of one ILM graph: its structure and node features.
GraphSample gnn_input(const TimingGraph& ilm, bool cppr_feature) {
  obs::Span span("gnn.features");
  GraphSample sample;
  sample.graph = GnnGraph::from_timing_graph(ilm);
  sample.features = extract_features(ilm, cppr_feature);
  return sample;
}

}  // namespace

Framework::Framework(FlowConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.data.ts.cppr = cfg_.cppr;
  cfg_.data.cppr_labels = cfg_.cppr;
  cfg_.data.ts.merge.aocv = cfg_.aocv;
  cfg_.merge.aocv = cfg_.aocv;
  cfg_.data.ts.threads = cfg_.threads;
  cfg_.train.threads = cfg_.threads;
}

std::size_t Framework::feature_count() const noexcept {
  return cfg_.cppr_feature ? kNumFeaturesWithCppr : kNumBasicFeatures;
}

void Framework::set_model(GnnModel model) {
  const std::size_t dim = model.config().input_dim;
  if (dim != feature_count())
    throw fault::FlowError(
        fault::ErrorCode::kConfig, "flow.model",
        "the model reads " + std::to_string(dim) +
            " features per pin, this flow extracts " +
            std::to_string(feature_count()) + " (is_CPPR feature " +
            (cfg_.cppr_feature ? "on" : "off") + ")");
  gnn_ = std::move(model);
}

TrainingSummary Framework::train(std::span<const Design> designs) {
  obs::Span train_span("flow.train");
  obs::trace_rss_sample();
  // Stamp the library hash into the config before the checkpoint
  // fingerprint is computed: TS labels depend on cell timing, so a
  // resume against a different library must be rejected, not silently
  // reused.
  if (!designs.empty())
    cfg_.library_fingerprint =
        flow::library_fingerprint(designs.front().library());
  flow::Checkpoint ckpt;
  if (!cfg_.checkpoint_dir.empty())
    ckpt = flow::Checkpoint::open(cfg_.checkpoint_dir, cfg_);
  TrainingSummary summary;
  std::vector<GraphSample> samples;
  std::vector<std::vector<double>> per_design_ts;
  samples.reserve(designs.size());
  double filtered_sum = 0.0;

  for (const Design& d : designs) {
    const std::string design_span_name = "flow.train.design:" + d.name();
    obs::Span design_span(design_span_name.c_str());
    // Per-design isolation: one failing training design (corrupt
    // netlist, numeric corruption, injected fault) is skipped with a
    // diagnostic instead of aborting training; its data simply does not
    // contribute. Work already banked for earlier designs is kept.
    try {
      fault::inject("flow.train_design");
      const TimingGraph flat = build_timing_graph(d);
      const IlmResult ilm = extract_ilm(flat);
      validate_stage(cfg_.validate_stages, "ilm (train)", ilm.graph);

      flow::SensCheckpoint sens;
      bool from_ckpt = false;
      if (ckpt.enabled()) {
        if (auto loaded = ckpt.load_sens(d.name());
            loaded && loaded->nodes == ilm.graph.num_nodes()) {
          sens = std::move(*loaded);
          from_ckpt = true;
          ++summary.designs_from_checkpoint;
          log_info("train design %s: sensitivity data restored from %s",
                   d.name().c_str(), ckpt.sens_path(d.name()).c_str());
        }
      }
      if (!from_ckpt) {
        const SensitivityData data =
            generate_training_data(ilm.graph, cfg_.data);
        sens.nodes = ilm.graph.num_nodes();
        sens.positives = data.positives;
        sens.filtered_fraction = data.filter.filtered_fraction();
        sens.failed_pins = data.ts.failed_pins;
        sens.skipped_sets = data.ts.skipped_sets;
        sens.labels = data.labels;
        sens.ts = data.ts.ts;
        ckpt.save_sens(d.name(), sens);
      }
      if (sens.failed_pins > 0 || sens.skipped_sets > 0) {
        summary.degraded.push_back(d.name());
        g_designs_degraded.add();
        log_warn("train design %s: degraded (%zu failed pins, %zu skipped "
                 "constraint sets; conservative fallbacks applied)",
                 d.name().c_str(), sens.failed_pins, sens.skipped_sets);
      }

      GraphSample sample = gnn_input(ilm.graph, cfg_.cppr_feature);
      sample.labels = sens.labels;
      sample.mask.assign(ilm.graph.num_nodes(), 1);
      for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n)
        if (ilm.graph.node(n).dead) sample.mask[n] = 0;

      summary.labeled_pins += ilm.graph.num_live_nodes();
      summary.positives += sens.positives;
      filtered_sum += sens.filtered_fraction;
      ++summary.designs;
      log_info("train design %s: ilm pins %zu, positives %zu, filtered %.1f%%",
               d.name().c_str(), ilm.graph.num_live_nodes(), sens.positives,
               sens.filtered_fraction * 100.0);
      per_design_ts.push_back(std::move(sens.ts));
      samples.push_back(std::move(sample));
    } catch (const std::exception& e) {
      summary.failed.push_back({d.name(), e.what()});
      g_designs_failed.add();
      log_error("train design %s failed, skipped: %s", d.name().c_str(),
                e.what());
    }
  }
  if (summary.designs == 0 && !designs.empty())
    throw fault::FlowError(
        fault::ErrorCode::kUnavailable, "flow.train",
        "every training design failed (first: " + summary.failed.front().design +
            ": " + summary.failed.front().error + ")");
  if (summary.designs > 0)
    summary.mean_filtered_fraction =
        filtered_sum / static_cast<double>(summary.designs);

  // Regression targets (Section 5.3): normalized TS magnitudes so the
  // model also captures the *relative* criticality between pins. The
  // normalization scale is shared across the training set; CPPR-rule
  // labels stay saturated at 1.
  if (cfg_.regression) {
    std::vector<double> positive_ts;
    for (const auto& ts : per_design_ts)
      for (double v : ts)
        if (v > cfg_.data.ts_zero_epsilon) positive_ts.push_back(v);
    ts_scale_ = positive_ts.empty() ? 1.0 : percentile(positive_ts, 95.0);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      for (std::size_t n = 0; n < samples[s].labels.size(); ++n) {
        if (samples[s].labels[n] < 0.5f) continue;  // zero-TS stays 0
        const double ts = per_design_ts[s][n];
        const double y =
            ts > cfg_.data.ts_zero_epsilon
                ? std::min(1.0, ts / ts_scale_)
                : 1.0;  // CPPR-rule label without TS: fully critical
        samples[s].labels[n] = static_cast<float>(
            std::max(y, static_cast<double>(cfg_.regression_keep_threshold) *
                            2.0));
      }
    }
  }

  if (ckpt.has_model()) {
    // Bit-identical resume: ts_scale_ above was recomputed from the
    // checkpointed raw TS vectors, and the model weights are restored
    // verbatim, so downstream predictions match the uninterrupted run.
    set_model(ckpt.load_model());
    summary.model_from_checkpoint = true;
    log_info("flow: GNN model restored from %s", ckpt.model_path().c_str());
  } else {
    GnnModelConfig gcfg = cfg_.gnn;
    gcfg.input_dim = feature_count();
    gnn_.emplace(gcfg);
    TrainConfig tcfg = cfg_.train;
    if (cfg_.regression) tcfg.loss = LossKind::kMeanSquaredError;
    summary.report = train_model(*gnn_, samples, tcfg);
    ckpt.save_model(*gnn_);
  }
  obs::trace_rss_sample();
  summary.stage_timings = train_span.closed_children();
  return summary;
}

std::vector<bool> Framework::predict_keep(const TimingGraph& ilm,
                                          double* inference_seconds) {
  Stopwatch sw;
  std::vector<bool> keep(ilm.num_nodes(), true);
  if (cfg_.label_all_remained) {
    const FilterResult fr = filter_insensitive_pins(ilm, cfg_.data.filter);
    for (NodeId n = 0; n < ilm.num_nodes(); ++n) keep[n] = fr.remained[n];
  } else {
    if (!gnn_) throw std::logic_error("Framework: model not trained");
    obs::Span span("gnn.infer");
    const GraphSample in = gnn_input(ilm, cfg_.cppr_feature);
    const auto probs = gnn_->predict(in.graph, in.features);
    const float threshold =
        cfg_.regression ? cfg_.regression_keep_threshold : cfg_.keep_threshold;
    for (NodeId n = 0; n < ilm.num_nodes(); ++n)
      keep[n] = probs[n] >= threshold;
    // CPPR mode: clock-network branch points are kept regardless of the
    // classifier (the Section 5.1 labeling rule applied at inference).
    if (cfg_.cppr) {
      for (NodeId n = 0; n < ilm.num_nodes(); ++n)
        if (is_cppr_crucial(ilm, n)) keep[n] = true;
    }
  }
  if (inference_seconds) *inference_seconds = sw.seconds();
  return keep;
}

std::vector<BoundaryConstraints> Framework::eval_sets(
    const Design& design) const {
  Rng rng(cfg_.eval_seed ^ (design.primary_inputs().size() * 0x9e3779b9ULL));
  std::vector<BoundaryConstraints> sets;
  for (std::size_t i = 0; i < cfg_.eval_constraint_sets; ++i)
    sets.push_back(random_constraints(design.primary_inputs().size(),
                                      design.primary_outputs().size(),
                                      cfg_.eval_constraint_gen, rng));
  return sets;
}

DesignResult Framework::evaluate(const Design& design, const TimingGraph& flat,
                                 MacroModel model, GenerationStats gen) const {
  DesignResult result;
  result.design = design.name();
  result.model_file_bytes = macro_model_size_bytes(model, cfg_.threads);
  model.file_size_bytes = result.model_file_bytes;
  const auto sets = eval_sets(design);
  Sta::Options opt;
  opt.cppr = cfg_.cppr;
  opt.aocv = cfg_.aocv;
  // The constraint sets run in parallel, one engine pair per thread.
  opt.threads = cfg_.threads;
  result.acc = evaluate_accuracy(flat, model.graph, sets, opt);
  result.usage_peak_rss = peak_rss_bytes();
  result.model_memory_bytes = model.graph.memory_bytes();
  result.gen = gen;
  result.model = std::move(model);
  return result;
}

DesignResult Framework::run_design(const Design& design) {
  const std::string span_name = "flow.run_design:" + design.name();
  obs::Span run_span(span_name.c_str());
  obs::trace_rss_sample();
  fault::inject("flow.design");

  const TimingGraph flat = build_timing_graph(design);
  Stopwatch gen_sw;
  IlmResult ilm = extract_ilm(flat);
  validate_stage(cfg_.validate_stages, "ilm", ilm.graph);
  GenerationStats gen;
  gen.ilm_pins = ilm.graph.num_live_nodes();

  double inference_seconds = 0.0;
  const auto keep = predict_keep(ilm.graph, &inference_seconds);
  for (bool k : keep)
    if (k) ++gen.pins_kept;

  merge_insensitive_pins(ilm.graph, keep, cfg_.merge, cfg_.threads);
  validate_stage(cfg_.validate_stages, "merge/index-selection", ilm.graph);
  gen.model_pins = ilm.graph.num_live_nodes();
  gen.generation_seconds = gen_sw.seconds();
  gen.generation_peak_rss = peak_rss_bytes();
  obs::trace_rss_sample();

  MacroModel model;
  model.design_name = design.name();
  model.graph = std::move(ilm.graph);
  if (cfg_.validate_stages) {
    const analysis::LintReport report =
        analysis::lint_model_against(model, design);
    if (!report.clean())
      throw std::runtime_error(
          "flow: invariant check failed on the generated model:\n" +
          report.to_string());
  }
  DesignResult result = evaluate(design, flat, std::move(model), gen);
  result.inference_seconds = inference_seconds;
  result.stage_timings = run_span.closed_children();
  return result;
}

DesignResult Framework::run_baseline(const obs::Span& root,
                                     const Design& design,
                                     const BaselineGenerator& generate) const {
  const TimingGraph flat = build_timing_graph(design);
  GenerationStats gen;
  MacroModel model = generate(flat, &gen);
  model.design_name = design.name();
  DesignResult result = evaluate(design, flat, std::move(model), gen);
  result.stage_timings = root.closed_children();
  return result;
}

DesignResult Framework::run_itimerm(const Design& design) {
  obs::Span span("flow.run_itimerm");
  ITimerMConfig cfg;
  cfg.protect_cppr = cfg_.cppr;
  cfg.merge.aocv = cfg_.aocv;
  return run_baseline(span, design,
                      [&](const TimingGraph& flat, GenerationStats* gen) {
                        return generate_itimerm_model(flat, cfg, gen);
                      });
}

DesignResult Framework::run_libabs(const Design& design) {
  obs::Span span("flow.run_libabs");
  return run_baseline(span, design,
                      [&](const TimingGraph& flat, GenerationStats* gen) {
                        return generate_libabs_model(flat, gen);
                      });
}

DesignResult Framework::run_etm(const Design& design, const EtmConfig& cfg) {
  obs::Span span("flow.run_etm");
  return run_baseline(span, design,
                      [&](const TimingGraph& flat, GenerationStats* gen) {
                        return generate_etm_model(flat, cfg, gen);
                      });
}

}  // namespace tmm
