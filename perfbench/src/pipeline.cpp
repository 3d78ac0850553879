#include "pipeline.hpp"

#include <sstream>

#include "common.hpp"
#include "frontend/frontend.hpp"
#include "gnn/features.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "sensitivity/training_data.hpp"
#include "spans.hpp"
#include "sta/propagation.hpp"

namespace pb {

using namespace tmm;

FlowConfig offline_config() {
  FlowConfig cfg;
  cfg.threads = 2;
  return cfg;
}

namespace {

std::string serialize(const GnnModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

}  // namespace

GnnModel load_weights(const std::string& weights) {
  std::istringstream is(weights);
  return GnnModel::load(is, "<bench>");
}

Framework framework_with(const FlowConfig& cfg, const std::string& weights) {
  Framework fw(cfg);
  fw.set_model(load_weights(weights));
  return fw;
}

TrainOutcome train_plain(const FlowConfig& cfg,
                         const std::vector<std::string>& dsn_paths) {
  std::vector<Design> designs;
  for (const std::string& p : dsn_paths)
    designs.push_back(frontend::load_design_any(p, {}, &library()));
  Framework fw(cfg);
  const TrainingSummary sum = fw.train(designs);
  TrainOutcome out;
  out.weights = serialize(fw.model());
  out.report = sum.report;
  out.designs = sum.designs;
  out.labeled_pins = sum.labeled_pins;
  out.positives = sum.positives;
  out.failed = sum.failed.size();
  out.degraded = sum.degraded.size();
  return out;
}

TrainOutcome train_traced(const FlowConfig& flow_cfg,
                          const std::vector<std::string>& dsn_paths) {
  trace::Span top("flow.train");
  // The Framework constructor derives the per-stage settings (TS timing
  // mode, worker count) from the flow configuration; reuse it.
  const FlowConfig cfg = Framework(flow_cfg).config();
  TrainOutcome out;
  std::vector<Design> designs;
  for (const std::string& p : dsn_paths) {
    trace::Span s("frontend.load");
    designs.push_back(frontend::load_design_any(p, {}, &library()));
    trace::count("frontend.pins", static_cast<double>(designs.back().num_pins()));
  }
  std::vector<GraphSample> samples;
  for (const Design& d : designs) {
    try {
      TimingGraph flat = [&] {
        trace::Span s("sta.graph_build");
        return build_timing_graph(d);
      }();
      const IlmResult ilm = [&] {
        trace::Span s("macro.ilm");
        return extract_ilm(flat);
      }();
      const TimingGraph& g = ilm.graph;
      const FilterResult filter = [&] {
        trace::Span s("sensitivity.filter");
        return filter_insensitive_pins(g, cfg.data.filter);
      }();
      const TsResult ts = [&] {
        trace::Span s("sensitivity.ts");
        return evaluate_timing_sensitivity(g, filter.remained, cfg.data.ts);
      }();
      trace::count("sensitivity.live_pins", static_cast<double>(filter.live_pins));
      trace::count("sensitivity.remained_pins",
                   static_cast<double>(filter.num_remained));
      trace::count("sensitivity.ts_pins", static_cast<double>(ts.evaluated_pins));
      if (ts.failed_pins > 0 || ts.skipped_sets > 0) ++out.degraded;

      // The label rule of generate_training_data (Section 5.1).
      GraphSample sample;
      sample.labels.assign(g.num_nodes(), 0.0f);
      std::size_t positives = 0;
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        if (g.node(n).dead) continue;
        bool positive = ts.ts[n] > cfg.data.ts_zero_epsilon;
        if (cfg.data.cppr_labels && is_cppr_crucial(g, n)) positive = true;
        if (positive) {
          sample.labels[n] = 1.0f;
          ++positives;
        }
      }
      {
        trace::Span s("gnn.features");
        sample.graph = GnnGraph::from_timing_graph(g);
        sample.features = extract_features(g, cfg.cppr_feature);
      }
      sample.mask.assign(g.num_nodes(), 1);
      for (NodeId n = 0; n < g.num_nodes(); ++n)
        if (g.node(n).dead) sample.mask[n] = 0;
      out.labeled_pins += g.num_live_nodes();
      out.positives += positives;
      trace::count("sensitivity.positives", static_cast<double>(positives));
      trace::count("sensitivity.labeled_pins",
                   static_cast<double>(g.num_live_nodes()));
      ++out.designs;
      samples.push_back(std::move(sample));
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  GnnModelConfig gcfg = cfg.gnn;
  gcfg.input_dim = cfg.cppr_feature ? kNumFeaturesWithCppr : kNumBasicFeatures;
  GnnModel model(gcfg);
  {
    trace::Span s("gnn.train");
    out.report = train_model(model, samples, cfg.train);
  }
  trace::count("gnn.epochs", static_cast<double>(out.report.epochs_run));
  {
    trace::Span s("gnn.save");
    out.weights = serialize(model);
  }
  return out;
}

std::string diff_train(const TrainOutcome& a, const TrainOutcome& b) {
  if (a.weights != b.weights) return "model weights differ";
  if (a.designs != b.designs || a.failed != b.failed ||
      a.degraded != b.degraded)
    return "design accounting differs";
  if (a.labeled_pins != b.labeled_pins || a.positives != b.positives)
    return "label counts differ";
  if (a.report.epochs_run != b.report.epochs_run ||
      a.report.final_loss != b.report.final_loss ||
      a.report.train_confusion.tp != b.report.train_confusion.tp ||
      a.report.train_confusion.fp != b.report.train_confusion.fp ||
      a.report.train_confusion.tn != b.report.train_confusion.tn ||
      a.report.train_confusion.fn != b.report.train_confusion.fn)
    return "training report differs";
  return "";
}

namespace {

std::uint64_t file_hash(const std::string& path) {
  return fnv1a(read_file(path));
}

}  // namespace

GenOutcome generate_plain(Framework& fw, const std::string& in,
                          const std::string& out_path) {
  const Design d = frontend::load_design_any(in, {}, &library());
  DesignResult r = fw.run_design(d);
  GenOutcome out;
  out.written_bytes = write_macro_model_file(r.model, out_path);
  out.design = d.name();
  out.design_pins = d.num_pins();
  out.model_pins = r.model.num_pins();
  out.model_file_bytes = r.model_file_bytes;
  out.acc = r.acc;
  out.file_hash = file_hash(out_path);
  return out;
}

GenOutcome generate_traced(const FlowConfig& flow_cfg, GnnModel& gnn,
                           const std::string& in, const std::string& out_path) {
  trace::Span top("flow.run_design");
  const FlowConfig cfg = Framework(flow_cfg).config();
  const Design d = [&] {
    trace::Span s("frontend.load");
    return frontend::load_design_any(in, {}, &library());
  }();
  trace::count("frontend.pins", static_cast<double>(d.num_pins()));
  const TimingGraph flat = [&] {
    trace::Span s("sta.graph_build");
    return build_timing_graph(d);
  }();
  IlmResult ilm = [&] {
    trace::Span s("macro.ilm");
    return extract_ilm(flat);
  }();
  std::vector<bool> keep(ilm.graph.num_nodes(), true);
  {
    trace::Span s("gnn.infer");
    GnnGraph graph;
    Matrix features;
    {
      trace::Span f("gnn.features");
      graph = GnnGraph::from_timing_graph(ilm.graph);
      features = extract_features(ilm.graph, cfg.cppr_feature);
    }
    const auto probs = gnn.predict(graph, features);
    for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n)
      keep[n] = probs[n] >= cfg.keep_threshold;
    if (cfg.cppr)
      for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n)
        if (is_cppr_crucial(ilm.graph, n)) keep[n] = true;
  }
  const MergeStats ms = [&] {
    trace::Span s("macro.merge");
    return merge_insensitive_pins(ilm.graph, keep, cfg.merge);
  }();
  trace::count("macro.pins_removed", static_cast<double>(ms.pins_removed));
  trace::count("macro.merge_refused", static_cast<double>(ms.refused));

  MacroModel model;
  model.design_name = d.name();
  model.graph = std::move(ilm.graph);
  GenOutcome out;
  {
    trace::Span s("macro.size");
    out.model_file_bytes = macro_model_size_bytes(model);
  }
  model.file_size_bytes = out.model_file_bytes;
  // Framework's evaluation constraint sets, seeded from the PI count.
  Rng rng(cfg.eval_seed ^ (d.primary_inputs().size() * 0x9e3779b9ULL));
  std::vector<BoundaryConstraints> sets;
  for (std::size_t i = 0; i < cfg.eval_constraint_sets; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(),
                                      cfg.eval_constraint_gen, rng));
  Sta::Options opt;
  opt.cppr = cfg.cppr;
  opt.aocv = cfg.aocv;
  opt.threads = cfg.threads;
  {
    trace::Span s("macro.evaluate");
    out.acc = evaluate_accuracy(flat, model.graph, sets, opt);
  }
  {
    trace::Span s("macro.write");
    out.written_bytes = write_macro_model_file(model, out_path);
  }
  trace::count("macro.bytes_written", static_cast<double>(out.written_bytes));
  out.design = d.name();
  out.design_pins = d.num_pins();
  out.model_pins = model.num_pins();
  out.file_hash = file_hash(out_path);
  return out;
}

std::string diff_generate(const GenOutcome& a, const GenOutcome& b) {
  if (a.file_hash != b.file_hash || a.written_bytes != b.written_bytes)
    return a.design + ": .macro bytes differ";
  if (a.model_file_bytes != b.model_file_bytes || a.model_pins != b.model_pins)
    return a.design + ": model size differs";
  if (a.acc.max_err_ps != b.acc.max_err_ps ||
      a.acc.avg_err_ps != b.acc.avg_err_ps ||
      a.acc.compared_values != b.acc.compared_values ||
      a.acc.structural_mismatches != b.acc.structural_mismatches)
    return a.design + ": accuracy report differs";
  return "";
}

double sta_ns_per_node(const TimingGraph& g, std::size_t threads, bool cppr) {
  Rng rng(0x57a);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
  Sta::Options opt;
  opt.cppr = cppr;
  opt.threads = threads;
  Sta sta(g, opt);
  sta.run(bc);  // warm: topology and level schedule are built lazily
  std::vector<double> per_node;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    sta.run(bc);
    per_node.push_back((now_s() - t0) * 1e9 /
                       static_cast<double>(g.num_nodes()));
  }
  return median(per_node);
}

}  // namespace pb
