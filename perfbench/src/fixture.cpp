#include <algorithm>
#include <filesystem>
#include <numeric>

#include "frontend/frontend.hpp"
#include "macro/model_io.hpp"
#include "netlist/netlist_io.hpp"
#include "serve/tmb.hpp"
#include "workloads.hpp"

namespace pb {

using namespace tmm;

std::vector<std::string> write_suite(const std::vector<SuiteEntry>& suite,
                                     const std::string& dir) {
  std::vector<std::string> paths;
  for (const SuiteEntry& e : suite) {
    const Design d = generate_design(library(), e.cfg);
    paths.push_back(dir + "/" + e.name + ".dsn");
    write_design_file(d, paths.back());
  }
  return paths;
}

Design load_input(const std::string& path) {
  return frontend::load_design_any(path, {}, &library());
}

TrainOutcome setup_model(const std::string& dir, Report& report) {
  const std::vector<std::string> paths =
      write_suite(training_suite(library(), kTrainScale), dir);
  TrainOutcome t = train_plain(offline_config(), paths);
  if (t.failed > 0 || t.degraded > 0)
    report.fail("set-up training had failed or degraded designs");
  return t;
}

std::vector<GenOutcome> generate_all(const std::string& weights,
                                     const std::vector<std::string>& inputs,
                                     const std::string& dir) {
  std::vector<GenOutcome> out;
  Framework fw = framework_with(offline_config(), weights);
  for (const std::string& in : inputs) {
    const std::string stem = std::filesystem::path(in).stem().string();
    out.push_back(generate_plain(fw, in, dir + "/" + stem + ".macro"));
  }
  return out;
}

Reference reference_models(const std::string& weights,
                           const std::string& dir) {
  Reference ref;
  const std::string sub = dir + "/ref";
  std::filesystem::create_directories(sub);
  const auto suite = tau_testing_suite(library(), kGenerateScale);
  ref.inputs = write_suite(suite, sub);
  ref.models = generate_all(weights, ref.inputs, sub);
  for (const GenOutcome& g : ref.models)
    ref.macros.push_back(sub + "/" + g.design + ".macro");
  return ref;
}

Quality check_models(const std::vector<GenOutcome>& models,
                     const std::vector<std::string>& inputs,
                     const std::vector<std::string>& macro_paths,
                     Report& report) {
  Quality q;
  std::vector<double> max_err, avg_err;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const GenOutcome& g = models[i];
    q.model_bytes += static_cast<double>(g.model_file_bytes);
    max_err.push_back(g.acc.max_err_ps);
    avg_err.push_back(g.acc.avg_err_ps);
    if (g.acc.structural_mismatches != 0)
      report.fail(g.design + ": structural mismatches");
    if (!(g.acc.max_err_ps <= kMaxErrLimitPs)) {
      report.note("max_err_ps." + g.design, g.acc.max_err_ps, "ps");
      // Some designs resist merging whatever picks the pins: then the
      // model must match the iTimerM-like baseline (the paper's claim).
      const Design d = load_input(inputs[i]);
      const double itm = Framework(offline_config()).run_itimerm(d).acc.max_err_ps;
      report.note("itimerm_max_err_ps." + g.design, itm, "ps");
      if (!(g.acc.max_err_ps <= itm + kBaselineSlackPs))
        report.fail(g.design + ": max error above the limit and the baseline");
    }
    if (g.written_bytes != g.model_file_bytes)
      report.fail(g.design + ": written size differs from the measured size");
    const MacroModel back = read_macro_model_file(macro_paths[i]);
    if (macro_model_size_bytes(back) != g.written_bytes)
      report.fail(g.design + ": .macro does not read back to the same size");
  }
  if (!models.empty()) {
    q.max_err_ps = *std::max_element(max_err.begin(), max_err.end());
    q.avg_err_ps = std::accumulate(avg_err.begin(), avg_err.end(), 0.0) /
                   static_cast<double>(avg_err.size());
  }
  return q;
}

std::unique_ptr<ServeHarness> start_serving(
    const std::vector<std::string>& macro_paths, const std::string& dir,
    std::uint64_t seed, const ServeParams& params, ServeSummary& s) {
  const std::string model_dir = dir + "/tmb";
  std::filesystem::create_directories(model_dir);
  s.pack_s = 0.0;
  for (const std::string& path : macro_paths) {
    const MacroModel m = read_macro_model_file(path);
    const double t0 = now_s();
    serve::write_tmb_file(m, model_dir + "/" +
                          std::filesystem::path(path).stem().string() + ".tmb");
    s.pack_s += now_s() - t0;
  }
  auto h = std::make_unique<ServeHarness>(model_dir, dir + "/serve.sock",
                                          seed, params);
  s.registry_load_s = h->registry_load_s();
  h->warm();
  return h;
}

void measure_serving(ServeHarness& h, double window_s, bool traced_bursts,
                     ServeSummary& s) {
  const ServeParams& params = h.params();
  const serve::Server::Stats before = h.server_stats();
  {
    const double start = now_s();
    const PhaseResult ref = h.open_loop(
        params.ref_qps,
        static_cast<std::size_t>(params.ref_qps * window_s / 2.0), false);
    // p99 per chunk of 1000 requests (ten samples beyond each), then
    // the median chunk: one host stall moves one chunk, not the result.
    std::vector<double> chunk_p99;
    for (std::size_t i = 0; i + 1000 <= ref.latency_us.size(); i += 1000)
      chunk_p99.push_back(quantile(
          std::vector<double>(ref.latency_us.begin() + i,
                              ref.latency_us.begin() + i + 1000),
          0.99));
    s.p50_us = median(ref.latency_us);
    s.p99_us = median(chunk_p99);
    s.chunk_p99_us = chunk_p99;
    s.rtt_hit_us = median(ref.rtt_hit_us);
    s.rtt_miss_us = median(ref.rtt_miss_us);
    s.gen_late_ms = quantile(ref.late_us, 0.99) / 1e3;
    std::vector<double> bursts, burst_cpu, burst_rel, traced;
    for (int i = 0; i < kMinBursts || now_s() - start < window_s * 0.85;
         ++i) {
      const double k0 = calibration(3);
      const double c0 = process_cpu_s();
      bursts.push_back(h.burst(params.burst_requests, false));
      burst_cpu.push_back(process_cpu_s() - c0);
      burst_rel.push_back(burst_cpu.back() / (0.5 * (k0 + calibration(3))));
      if (traced_bursts) {
        // The serve workload's traced body: the same burst with a span
        // around every send.
        trace::enable(true);
        trace::set_rep(i);
        traced.push_back(h.burst(params.burst_requests, true));
        trace::enable(false);
      }
    }
    s.burst_s = median(bursts);
    s.burst_cpu_s = median(burst_cpu);
    s.burst_cpu_rel = median(burst_rel);
    s.qps_per_core = static_cast<double>(params.burst_requests) / s.burst_cpu_s;
    s.traced_burst_s = median(traced);
    s.slo_qps = h.slo_qps();
  }
  s.peak_rss_mb = peak_rss_mb();
  const serve::Server::Stats after = h.server_stats();
  {
    const ServeHarness::Totals t = h.verify(3);
    s.attempted = t.attempted;
    s.failed = t.failed;
    s.hit_ratio = t.answered ? static_cast<double>(t.hits) /
                                   static_cast<double>(t.answered)
                             : 0.0;
  }
  const auto batches = static_cast<double>(after.batches - before.batches);
  s.requests_per_batch =
      batches > 0 ? static_cast<double>(after.requests - before.requests) / batches
                  : 0.0;
  s.shed = static_cast<double>(after.shed_overload);
  s.conn_aborts = static_cast<double>(after.conn_aborts);
  s.evictions = static_cast<double>(h.cache_stats().evictions);
  s.probe = h.probe();
}

void add_end_to_end(Report& r, const EndToEnd& e, const ServeSummary* serve) {
  r.add("setup_s", e.setup_s, "s");
  r.add("wall_s", e.wall_s, "s");
  r.add("cpu_rel", e.cpu_rel, "ratio");
  r.add("peak_rss_mb", e.peak_rss_mb, "MB");
  r.add("gnn_f1", e.gnn_f1, "ratio");
  r.add("model_bytes", e.quality.model_bytes, "bytes");
  r.add("max_err_ps", e.quality.max_err_ps, "ps");
  r.add("avg_err_ps", e.quality.avg_err_ps, "ps");
  // Printed, not gated: on a shared machine these follow the host's
  // scheduling stalls and clock as much as the program (README.md).
  r.note("cpu_s", e.cpu_s, "s");
  if (serve == nullptr) return;
  r.note("serve_p50_us", serve->p50_us, "us");
  r.note("serve_qps_per_core", serve->qps_per_core, "1/s");
  r.note("serve_p99_us", serve->p99_us, "us");
  r.note("serve_slo_qps", serve->slo_qps, "1/s");
  for (std::size_t i = 0; i < serve->chunk_p99_us.size(); ++i)
    r.note("serve_p99_us.chunk" + std::to_string(i), serve->chunk_p99_us[i],
           "us");
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_per_layer(Report& r, const ServeSummary& sv, double flat_ns_per_node,
                   double trace_overhead_ratio) {
  const trace::Totals t = trace::body_totals();
  auto span_s = [&](const char* name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? 0.0 : it->second.total_s;
  };
  auto cnt = [&](const char* name) {
    const auto it = t.counts.find(name);
    return it == t.counts.end() ? 0.0 : it->second;
  };
  const double train_s = span_s("gnn.train");
  const double epochs = cnt("gnn.epochs");
  r.add("gnn.train_s", train_s, "s");
  r.add("gnn.epochs", epochs, "count");
  r.add("gnn.epoch_ms", ratio(train_s, epochs) * 1e3, "ms");
  r.add("gnn.features_s", span_s("gnn.features"), "s");
  r.add("gnn.infer_s", span_s("gnn.infer"), "s");
  r.add("sensitivity.filter_s", span_s("sensitivity.filter"), "s");
  r.add("sensitivity.filtered_ratio",
        ratio(cnt("sensitivity.live_pins") - cnt("sensitivity.remained_pins"),
              cnt("sensitivity.live_pins")),
        "ratio");
  const double ts_s = span_s("sensitivity.ts");
  r.add("sensitivity.ts_s", ts_s, "s");
  r.add("sensitivity.ts_pins", cnt("sensitivity.ts_pins"), "count");
  r.add("sensitivity.ts_us_per_pin", ratio(ts_s, cnt("sensitivity.ts_pins")) * 1e6,
        "us");
  r.add("sensitivity.positive_ratio",
        ratio(cnt("sensitivity.positives"), cnt("sensitivity.labeled_pins")),
        "ratio");
  const double write_s = span_s("macro.write");
  r.add("macro.size_s", span_s("macro.size"), "s");
  r.add("macro.write_s", write_s, "s");
  r.add("macro.write_mb_per_s",
        ratio(cnt("macro.bytes_written") / (1024.0 * 1024.0), write_s), "MB/s");
  r.add("macro.merge_s", span_s("macro.merge"), "s");
  r.add("macro.pins_removed", cnt("macro.pins_removed"), "count");
  r.add("macro.merge_refused", cnt("macro.merge_refused"), "count");
  r.add("macro.evaluate_s", span_s("macro.evaluate"), "s");
  r.add("macro.ilm_s", span_s("macro.ilm"), "s");
  r.add("sta.graph_build_s", span_s("sta.graph_build"), "s");
  r.add("sta.flat_ns_per_node", flat_ns_per_node, "ns");
  r.add("sta.macro_ns_per_node", sv.probe.macro_ns_per_node, "ns");
  const double load_s = span_s("frontend.load");
  r.add("frontend.load_s", load_s, "s");
  r.add("frontend.pins_per_s", ratio(cnt("frontend.pins"), load_s), "1/s");
  r.add("serve.p50_us", sv.p50_us, "us");
  r.add("serve.p99_us", sv.p99_us, "us");
  r.add("serve.qps_per_core", sv.qps_per_core, "1/s");
  r.add("serve.slo_qps", sv.slo_qps, "1/s");
  r.add("serve.eval_miss_us", sv.probe.eval_miss_us, "us");
  r.add("serve.eval_hit_us", sv.probe.eval_hit_us, "us");
  r.add("serve.codec_us", sv.probe.codec_us, "us");
  r.add("serve.rtt_hit_us", sv.rtt_hit_us, "us");
  r.add("serve.rtt_miss_us", sv.rtt_miss_us, "us");
  r.add("serve.cache_hit_ratio", sv.hit_ratio, "ratio");
  r.add("serve.cache_evictions", sv.evictions, "count");
  r.add("serve.requests_per_batch", sv.requests_per_batch, "count");
  r.add("serve.shed", sv.shed, "count");
  r.add("serve.conn_aborts", sv.conn_aborts, "count");
  r.add("serve.gen_late_ms", sv.gen_late_ms, "ms");
  r.add("serve.pack_s", sv.pack_s, "s");
  r.add("serve.registry_load_s", sv.registry_load_s, "s");
  for (const char* mod :
       {"frontend", "sta", "macro", "sensitivity", "gnn", "flow", "serve"}) {
    const auto it = t.modules.find(mod);
    const trace::Layer l = it == t.modules.end() ? trace::Layer{} : it->second;
    r.add(std::string(mod) + ".total_s", l.total_s, "s");
    r.add(std::string(mod) + ".self_s", l.self_s, "s");
  }
  r.add("bench.trace_overhead_ratio", trace_overhead_ratio, "ratio");

  // Layer shares of the body repetition, printed only.
  for (const auto& [name, l] : t.spans)
    r.note("share." + name, ratio(l.self_s, t.wall_s), "of body (self)");
  for (const auto& [name, l] : t.spans)
    r.note("calls." + name, l.calls, "count");
}

std::uint64_t hash_files(const std::vector<std::string>& paths) {
  std::uint64_t h = fnv1a(std::string());
  for (const std::string& p : paths) h = fnv1a(read_file(p), h);
  return h;
}

void check_seeded_inputs(std::uint64_t used, std::uint64_t again,
                         std::uint64_t next, Report& report) {
  if (used != again) report.fail("the seed does not reproduce the inputs used");
  if (used == next) report.fail("the next seed draws the same inputs");
}

}  // namespace pb
