// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: LUT lookup, full STA propagation (serial and
// level-parallel), the slew-only filter propagation, GraphSAGE
// inference and training epochs (1/2/4 threads), feature extraction,
// ILM extraction, merging, .macro formatting and the incremental TS
// evaluation loop.
//
// Besides the google-benchmark entries, main() directly times the TS
// loop full vs incremental (`speedup_incremental`) and serial vs
// parallel full STA on a large synthetic design (`speedup_parallel`,
// with a bitwise serial/parallel comparison on the way) into the one
// BENCH_micro.json (CI asserts both stay >= 1 and zero mismatches).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "flow/framework.hpp"
#include "liberty/library_gen.hpp"
#include "macro/model_io.hpp"
#include "netlist/design_gen.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sliding_window.hpp"
#include "obs/trace.hpp"
#include "sensitivity/ts_eval.hpp"
#include "util/instrument.hpp"

namespace {

using namespace tmm;

const Library& lib() {
  static const Library l = generate_library();
  return l;
}

const Design& design() {
  static const Design d = [] {
    DesignGenConfig cfg;
    cfg.name = "bench";
    cfg.seed = 77;
    cfg.num_data_inputs = 32;
    cfg.num_outputs = 32;
    cfg.num_flops = 120;
    cfg.levels = 8;
    cfg.gates_per_level = 120;
    return generate_design(lib(), cfg);
  }();
  return d;
}

const TimingGraph& flat_graph() {
  static const TimingGraph g = build_timing_graph(design());
  return g;
}

void BM_LutLookup(benchmark::State& state) {
  const Cell& cell = lib().cell(lib().cell_id("NAND2_X1"));
  const Lut& lut = cell.arcs[0].delay(kLate, kRise);
  double s = 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.lookup(s, 4.0));
    s = s < 100 ? s + 0.37 : 1.0;
  }
}
BENCHMARK(BM_LutLookup);

void BM_BuildTimingGraph(benchmark::State& state) {
  for (auto _ : state) {
    TimingGraph g = build_timing_graph(design());
    benchmark::DoNotOptimize(g.num_nodes());
  }
}
BENCHMARK(BM_BuildTimingGraph)->Unit(benchmark::kMillisecond);

void BM_StaFullRun(benchmark::State& state) {
  const TimingGraph& g = flat_graph();
  Sta sta(g, {.cppr = state.range(0) != 0});
  const BoundaryConstraints bc = nominal_constraints(
      g.primary_inputs().size(), g.primary_outputs().size());
  for (auto _ : state) {
    sta.run(bc);
    benchmark::DoNotOptimize(sta.worst_slack(kLate));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()));
}
BENCHMARK(BM_StaFullRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Levelized full run at 1/2/4/8 threads on the bench design. Every row
// walks the same CSR level schedule; Arg(1) runs it inline on the
// caller, exactly like BM_StaFullRun (threads == 1 never consults the
// size floor, which is forced to 0 so the other rows really fan out).
// Results are bit-identical to BM_StaFullRun's.
void BM_StaParallelForward(benchmark::State& state) {
  const TimingGraph& g = flat_graph();
  Sta::Options opt;
  opt.cppr = true;
  opt.threads = static_cast<std::size_t>(state.range(0));
  opt.parallel_min_nodes = 0;
  Sta sta(g, opt);
  const BoundaryConstraints bc = nominal_constraints(
      g.primary_inputs().size(), g.primary_outputs().size());
  for (auto _ : state) {
    sta.run(bc);
    benchmark::DoNotOptimize(sta.worst_slack(kLate));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()));
}
BENCHMARK(BM_StaParallelForward)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Observability overhead. Sta::run carries an obs::Span and two metric
// counters; BM_StaFullRun above therefore measures the
// instrumented-but-disabled path. The entries below isolate the obs
// primitives themselves: a disabled span must cost one predicted branch
// (compare BM_StaFullRun before/after instrumentation stays within
// noise, i.e. <1%), and an enabled span stays cheap enough for
// per-epoch / per-stage granularity.
void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::set_tracing_enabled(false);
  for (auto _ : state) {
    obs::Span span("bench.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::set_tracing_enabled(true);
  std::size_t since_reset = 0;
  for (auto _ : state) {
    {
      obs::Span span("bench.span");
      benchmark::DoNotOptimize(&span);
    }
    // Bound buffer growth; amortized over 64Ki spans the reset cost is
    // negligible next to the two clock reads per span.
    if (++since_reset == (1u << 16)) {
      since_reset = 0;
      obs::reset_trace();
    }
  }
  obs::set_tracing_enabled(false);
  obs::reset_trace();
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsCounter(benchmark::State& state) {
  static obs::Counter& c = obs::counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_ObsCounter);

// Flight-recorder hot path (docs/OBSERVABILITY.md): disabled it is one
// relaxed load + branch (the permanently-instrumented serve contract);
// enabled, one seqlock-protected ring-slot write. The serving budget is
// < 100 ns/request enabled.
void BM_FlightRecordDisabled(benchmark::State& state) {
  obs::set_flight_recorder_enabled(false);
  obs::FlightRecord rec;
  rec.set_model("bench");
  rec.set_status("ok");
  for (auto _ : state) {
    obs::flight_record(rec);
    benchmark::DoNotOptimize(&rec);
  }
}
BENCHMARK(BM_FlightRecordDisabled);

void BM_FlightRecordEnabled(benchmark::State& state) {
  obs::set_flight_recorder_enabled(true, /*per_thread_capacity=*/256);
  obs::FlightRecord rec;
  rec.set_model("bench");
  rec.set_status("ok");
  rec.total_us = 12.5F;
  for (auto _ : state) {
    obs::flight_record(rec);
    benchmark::DoNotOptimize(&rec);
  }
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
}
BENCHMARK(BM_FlightRecordEnabled);

// One windowed observation: slot claim (usually an acquire load that
// matches) + bucket/count/sum relaxed adds — the per-request cost of
// ServeStats on top of the flight record.
void BM_WindowedHistogramObserve(benchmark::State& state) {
  static const std::vector<double> bounds = obs::log_spaced_bounds(1.0, 1e7, 5);
  obs::WindowedHistogram h(bounds);
  std::uint64_t now_us = 0;
  for (auto _ : state) {
    h.observe(now_us, 42.0);
    now_us += 7;  // ~140k observations per simulated second
    benchmark::DoNotOptimize(&h);
  }
}
BENCHMARK(BM_WindowedHistogramObserve);

void BM_StaFullRunTraced(benchmark::State& state) {
  const TimingGraph& g = flat_graph();
  Sta sta(g, {.cppr = false});
  const BoundaryConstraints bc = nominal_constraints(
      g.primary_inputs().size(), g.primary_outputs().size());
  obs::set_tracing_enabled(true);
  std::size_t since_reset = 0;
  for (auto _ : state) {
    sta.run(bc);
    benchmark::DoNotOptimize(sta.worst_slack(kLate));
    if (++since_reset == 4096) {
      since_reset = 0;
      obs::reset_trace();
    }
  }
  obs::set_tracing_enabled(false);
  obs::reset_trace();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()));
}
BENCHMARK(BM_StaFullRunTraced)->Unit(benchmark::kMillisecond);

void BM_SlewOnlyPropagation(benchmark::State& state) {
  const TimingGraph& g = flat_graph();
  for (auto _ : state)
    benchmark::DoNotOptimize(propagate_slew_only(g, 10.0));
}
BENCHMARK(BM_SlewOnlyPropagation)->Unit(benchmark::kMillisecond);

void BM_IlmExtraction(benchmark::State& state) {
  const TimingGraph& g = flat_graph();
  for (auto _ : state) {
    IlmResult ilm = extract_ilm(g);
    benchmark::DoNotOptimize(ilm.graph.num_live_nodes());
  }
}
BENCHMARK(BM_IlmExtraction)->Unit(benchmark::kMillisecond);

void BM_InsensitiveFilter(benchmark::State& state) {
  static const IlmResult ilm = extract_ilm(flat_graph());
  for (auto _ : state) {
    FilterResult fr = filter_insensitive_pins(ilm.graph);
    benchmark::DoNotOptimize(fr.num_remained);
  }
}
BENCHMARK(BM_InsensitiveFilter)->Unit(benchmark::kMillisecond);

void BM_MergeInsensitivePins(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    IlmResult ilm = extract_ilm(flat_graph());
    std::vector<bool> keep(ilm.graph.num_nodes(), false);
    state.ResumeTiming();
    MergeStats stats = merge_insensitive_pins(ilm.graph, keep);
    benchmark::DoNotOptimize(stats.pins_removed);
  }
}
BENCHMARK(BM_MergeInsensitivePins)->Unit(benchmark::kMillisecond);

// The .macro text of one model the size perfbench's generate workload
// writes: the largest scale-1000 testing design (leon2_iccad_eval)
// through run_design, with the filter picking the kept pins so that no
// trained GNN is needed.
void BM_FormatMacroModel(benchmark::State& state) {
  static const MacroModel model = [] {
    FlowConfig cfg;
    cfg.label_all_remained = true;
    Framework fw(cfg);
    const Design d =
        generate_design(lib(), tau_testing_suite(lib(), 1000)[4].cfg);
    return fw.run_design(d).model;
  }();
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = macro_model_size_bytes(model);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FormatMacroModel)->Unit(benchmark::kMillisecond);

void BM_FeatureExtraction(benchmark::State& state) {
  static const IlmResult ilm = extract_ilm(flat_graph());
  for (auto _ : state) {
    Matrix x = extract_features(ilm.graph, true);
    benchmark::DoNotOptimize(x.size());
  }
}
BENCHMARK(BM_FeatureExtraction)->Unit(benchmark::kMillisecond);

void BM_GnnInference(benchmark::State& state) {
  static const IlmResult ilm = extract_ilm(flat_graph());
  static const GnnGraph g = GnnGraph::from_timing_graph(ilm.graph);
  static const Matrix x = extract_features(ilm.graph, true);
  GnnModelConfig cfg;
  cfg.input_dim = kNumFeaturesWithCppr;
  GnnModel model(cfg);
  for (auto _ : state) {
    auto probs = model.predict(g, x);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes));
}
BENCHMARK(BM_GnnInference)->Unit(benchmark::kMillisecond);

// GNN training epochs over the six training designs at scale 20 (the
// perfbench `train` input, unseeded; 314..1087 nodes, 3820 in all) at
// state.range(0) threads: the samples' forward/backward passes run one
// per task, then reduce in sample order. Each iteration is one
// train_model call of kEpochs epochs; `epoch_s` spreads the call's
// fixed cost (workspaces, the closing confusion pass) over them.
// Labels mark every 7th pin, so set-up skips the TS loop.
void BM_GnnTrainEpoch(benchmark::State& state) {
  static const std::vector<GraphSample> samples = [] {
    std::vector<GraphSample> out;
    for (const SuiteEntry& e : training_suite(lib(), 20)) {
      const IlmResult ilm =
          extract_ilm(build_timing_graph(generate_design(lib(), e.cfg)));
      GraphSample s;
      s.graph = GnnGraph::from_timing_graph(ilm.graph);
      s.features = extract_features(ilm.graph, true);
      s.labels.assign(ilm.graph.num_nodes(), 0.0f);
      for (std::size_t i = 0; i < s.labels.size(); i += 7) s.labels[i] = 1.0f;
      s.mask.assign(ilm.graph.num_nodes(), 1);
      out.push_back(std::move(s));
    }
    return out;
  }();
  GnnModelConfig cfg;
  cfg.input_dim = kNumFeaturesWithCppr;
  GnnModel model(cfg);
  TrainConfig tc;
  constexpr int kEpochs = 10;
  tc.epochs = kEpochs;
  tc.patience = 0;
  tc.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    TrainReport rep = train_model(model, samples, tc);
    benchmark::DoNotOptimize(rep.final_loss);
  }
  state.counters["epoch_s"] = benchmark::Counter(
      kEpochs, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_GnnTrainEpoch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TsEvalFullVsIncremental(benchmark::State& state) {
  static const IlmResult ilm = extract_ilm(flat_graph());
  const std::vector<bool> cands(ilm.graph.num_nodes(), true);
  TsConfig cfg;
  cfg.threads = 1;
  cfg.incremental = state.range(0) != 0;
  for (auto _ : state) {
    TsResult r = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
    benchmark::DoNotOptimize(r.ts.data());
  }
}
BENCHMARK(BM_TsEvalFullVsIncremental)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);  // a single TS sweep is seconds on the full path

// TS labeling loop across worker counts (parallelism is across
// candidate pins; each worker's scratch engine stays serial).
void BM_TsEvalParallel(benchmark::State& state) {
  static const IlmResult ilm = extract_ilm(flat_graph());
  const std::vector<bool> cands(ilm.graph.num_nodes(), true);
  TsConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.incremental = true;
  for (auto _ : state) {
    TsResult r = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
    benchmark::DoNotOptimize(r.ts.data());
  }
}
BENCHMARK(BM_TsEvalParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Direct full-vs-incremental comparison on the bench design, recorded
// in BENCH_micro.json: CI smoke-checks `speedup_incremental`, and the
// loop double-checks the bit-identity contract on the way.
void record_ts_speedup(bench::JsonReport& json) {
  const IlmResult ilm = extract_ilm(flat_graph());
  const std::vector<bool> cands(ilm.graph.num_nodes(), true);
  TsConfig cfg;
  cfg.threads = 1;

  Stopwatch sw;
  cfg.incremental = false;
  const TsResult full = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
  const double full_s = sw.seconds();

  sw = Stopwatch();
  cfg.incremental = true;
  const TsResult inc = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
  const double inc_s = sw.seconds();

  std::size_t mismatches = 0;
  for (std::size_t n = 0; n < full.ts.size(); ++n)
    if (std::memcmp(&full.ts[n], &inc.ts[n], sizeof(double)) != 0)
      ++mismatches;

  const double speedup = inc_s > 0.0 ? full_s / inc_s : 0.0;
  std::printf(
      "\nTS eval on %zu pins: full %.3fs, incremental %.3fs -> "
      "speedup_incremental %.2fx (%zu TS mismatches)\n",
      full.evaluated_pins, full_s, inc_s, speedup, mismatches);

  json.set_meta("ts_pins", static_cast<double>(full.evaluated_pins));
  json.add_row("bench", "full",
               {{"ts_eval_seconds", full_s},
                {"pins", static_cast<double>(full.evaluated_pins)}});
  json.add_row("bench", "incremental",
               {{"ts_eval_seconds", inc_s},
                {"pins", static_cast<double>(inc.evaluated_pins)}});
  json.set_summary("speedup_incremental", speedup);
  json.set_summary("ts_bitwise_mismatches", static_cast<double>(mismatches));
}

// Serial vs level-parallel full STA on a design an order of magnitude
// larger than the google-benchmark one (scale with
// TMM_BENCH_PARALLEL_GATES). Every parallel run is compared against
// the serial engine bit-for-bit over all live nodes before its time is
// trusted; CI smoke-checks `speedup_parallel` (the 4-thread row) and
// `parallel_bitwise_mismatches`.
void record_parallel_speedup(bench::JsonReport& json) {
  DesignGenConfig dcfg;
  dcfg.name = "bench_parallel";
  dcfg.seed = 78;
  dcfg.num_data_inputs = 64;
  dcfg.num_outputs = 64;
  dcfg.num_flops = 256;
  dcfg.levels = 12;
  dcfg.gates_per_level = bench::env_scale("TMM_BENCH_PARALLEL_GATES", 700);
  const Design d = generate_design(lib(), dcfg);
  const TimingGraph g = build_timing_graph(d);
  const BoundaryConstraints bc = nominal_constraints(
      g.primary_inputs().size(), g.primary_outputs().size());

  // Best-of-3 wall time per configuration: full runs are long enough
  // for the min to be stable, and the min discards one-off scheduler /
  // page-fault noise that a mean would fold in.
  const auto best_of = [&](Sta& sta) {
    double best = kInf;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      sta.run(bc);
      best = std::min(best, sw.seconds());
    }
    return best;
  };

  Sta serial(g, {.cppr = true});
  const double serial_s = best_of(serial);

  std::size_t mismatches = 0;
  double at4 = 0.0;
  json.set_meta("parallel_nodes", static_cast<double>(g.num_nodes()));
  json.add_row("parallel", "threads=1",
               {{"sta_run_seconds", serial_s}, {"speedup", 1.0}});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    Sta::Options opt;
    opt.cppr = true;
    opt.threads = threads;
    opt.parallel_min_nodes = 0;
    Sta par(g, opt);
    const double par_s = best_of(par);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (g.node(n).dead) continue;
      const PinTiming a = serial.timing(n);
      const PinTiming b = par.timing(n);
      if (std::memcmp(&a, &b, sizeof(PinTiming)) != 0) ++mismatches;
    }
    const double speedup = par_s > 0.0 ? serial_s / par_s : 0.0;
    if (threads == 4) at4 = speedup;
    char label[32];
    std::snprintf(label, sizeof(label), "threads=%zu", threads);
    json.add_row("parallel", label,
                 {{"sta_run_seconds", par_s}, {"speedup", speedup}});
    std::printf(
        "Parallel STA on %zu nodes: serial %.3fs, %zu threads %.3fs -> "
        "%.2fx (%zu bitwise mismatches so far)\n",
        static_cast<std::size_t>(g.num_nodes()), serial_s, threads, par_s,
        speedup, mismatches);
  }
  json.set_summary("speedup_parallel", at4);
  json.set_summary("parallel_bitwise_mismatches",
                   static_cast<double>(mismatches));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Both recorders feed one report: JsonReport::write replaces the
  // whole BENCH_micro.json, so a second instance would clobber the
  // first one's rows and summaries.
  bench::JsonReport json("micro");
  record_ts_speedup(json);
  record_parallel_speedup(json);
  json.write();
  return 0;
}
