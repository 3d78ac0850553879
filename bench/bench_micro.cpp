// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: LUT lookup, full STA propagation (serial and
// level-parallel), one cache-missing serving query, the slew-only filter
// propagation, GraphSAGE inference and training epochs (1/2/4 threads),
// the GNN GEMM kernels (both bodies), feature extraction, ILM
// extraction, merging and accuracy evaluation (1/2 threads), one %.9g
// conversion, .macro formatting, .macro/.dsn parsing, the .tmb CRC and
// the TS evaluation loop (1/2/4/8 threads).
//
// BM_SpeedupRecords times serial vs parallel full STA on a large
// synthetic design (`speedup_parallel`, with a bitwise serial/parallel
// comparison on the way) into BENCH_micro.json (CI runs it with
// --benchmark_filter=SpeedupRecords and asserts the speedup stays >= 1
// with zero mismatches).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "flow/framework.hpp"
#include "gnn/gemm.hpp"
#include "liberty/library_gen.hpp"
#include "macro/model_io.hpp"
#include "netlist/design_gen.hpp"
#include "netlist/netlist_io.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sliding_window.hpp"
#include "obs/trace.hpp"
#include "sensitivity/ts_eval.hpp"
#include "serve/evaluator.hpp"
#include "serve/registry.hpp"
#include "serve/tmb.hpp"
#include "util/instrument.hpp"
#include "util/text_out.hpp"

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

// Merging every legal pin of the bench design's ILM; Arg is the thread
// count merged arcs are composed on (the model is the same at both).
void BM_MergeInsensitivePins(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    IlmResult ilm = extract_ilm(flat_graph());
    std::vector<bool> keep(ilm.graph.num_nodes(), false);
    state.ResumeTiming();
    MergeStats stats = merge_insensitive_pins(ilm.graph, keep, {}, threads);
    benchmark::DoNotOptimize(stats.pins_removed);
  }
}
BENCHMARK(BM_MergeInsensitivePins)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Accuracy evaluation of that merged model against the flat bench
// design under run_design's 4 constraint sets; Arg is the thread count
// (one contiguous range of sets per thread).
void BM_EvaluateAccuracy(benchmark::State& state) {
  static const TimingGraph model = [] {
    IlmResult ilm = extract_ilm(flat_graph());
    merge_insensitive_pins(ilm.graph,
                           std::vector<bool>(ilm.graph.num_nodes(), false));
    return std::move(ilm.graph);
  }();
  const TimingGraph& flat = flat_graph();
  Rng rng(0xE7A1);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < 4; ++i)
    sets.push_back(random_constraints(flat.primary_inputs().size(),
                                      flat.primary_outputs().size(), {}, rng));
  Sta::Options opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const AccuracyReport rep = evaluate_accuracy(flat, model, sets, opt);
    benchmark::DoNotOptimize(rep.max_err_ps);
  }
}
BENCHMARK(BM_EvaluateAccuracy)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// One %.9g conversion of a LUT value: every index and value of the
// flat graph's cell-arc tables, cycled. Arg(0) is plain std::to_chars,
// Arg(1) util::to_chars_general (TextOut's path), which must print the
// same bytes several times faster.
void BM_TextOutDouble(benchmark::State& state) {
  static const std::vector<double> values = [] {
    std::vector<double> out;
    const TimingGraph& g = flat_graph();
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const GraphArc& arc = g.arc(a);
      if (arc.kind != GraphArcKind::kCell) continue;
      for (unsigned el = 0; el < kNumEl; ++el)
        for (unsigned rf = 0; rf < kNumRf; ++rf) {
          const Lut& lut = (*arc.delay)(el, rf);
          out.insert(out.end(), lut.slew_index().begin(),
                     lut.slew_index().end());
          out.insert(out.end(), lut.load_index().begin(),
                     lut.load_index().end());
          out.insert(out.end(), lut.values().begin(), lut.values().end());
        }
    }
    return out;
  }();
  const bool fast = state.range(0) != 0;
  char buf[32];
  std::size_t i = 0;
  for (auto _ : state) {
    const double v = values[i];
    i = i + 1 == values.size() ? 0 : i + 1;
    char* end =
        fast ? util::to_chars_general(buf, buf + sizeof buf, v, 9)
             : std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general, 9)
                   .ptr;
    benchmark::DoNotOptimize(end);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextOutDouble)->ArgName("fast")->Arg(0)->Arg(1);

// One cache-missing serving query: Evaluator::evaluate with the cache
// bypassed, on a macro the size perfbench's serve workload serves. The
// smallest scale-100 testing design goes through run_design (the filter
// picks the kept pins, so no trained GNN is needed), is packed to .tmb
// and loaded back the way `tmm serve` loads it. Queries cycle over 16
// random constraint sets; `pins` is the macro's live pin count.
void BM_ServeMiss(benchmark::State& state) {
  struct Fixture {
    serve::ModelRegistry registry;
    std::string name;
    std::vector<BoundaryConstraints> sets;
  };
  // Built on first use and never freed: it outlives every run.
  static const Fixture& fx = *[] {
    auto* f = new Fixture;
    std::vector<SuiteEntry> suite = tau_testing_suite(lib(), 100);
    const SuiteEntry& smallest = *std::min_element(
        suite.begin(), suite.end(), [](const auto& a, const auto& b) {
          return a.tau_pins < b.tau_pins;
        });
    FlowConfig cfg;
    cfg.label_all_remained = true;
    Framework fw(cfg);
    const MacroModel model =
        fw.run_design(generate_design(lib(), smallest.cfg)).model;
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("bench_micro_serve_miss_" + std::to_string(::getpid()) + ".tmb");
    serve::write_tmb_file(model, path.string());
    f->registry.load_file(path.string());
    std::filesystem::remove(path);
    f->name = model.design_name;
    Rng rng(24);
    for (int i = 0; i < 16; ++i)
      f->sets.push_back(random_constraints(
          model.graph.primary_inputs().size(),
          model.graph.primary_outputs().size(), {}, rng));
    return f;
  }();
  serve::Evaluator eval(fx.registry, {});
  serve::Evaluator::Scratch scratch;
  BoundarySnapshot out;
  // Warm up: the first query builds the worker's engine for the model.
  eval.evaluate(fx.name, fx.sets[0], out, scratch, /*bypass_cache=*/true);
  std::size_t k = 0;
  for (auto _ : state) {
    eval.evaluate(fx.name, fx.sets[k++ % fx.sets.size()], out, scratch,
                  /*bypass_cache=*/true);
    benchmark::DoNotOptimize(out.at.data());
  }
  state.counters["pins"] = static_cast<double>(
      fx.registry.find(fx.name)->model.graph.num_live_nodes());
}
BENCHMARK(BM_ServeMiss)->Unit(benchmark::kMicrosecond);

// The .macro text of one model the size perfbench's generate workload
// writes: the largest scale-1000 testing design (leon2_iccad_eval)
// through run_design, with the filter picking the kept pins so that no
// trained GNN is needed. Arg is the thread count of the size count.
const MacroModel& leon2_model() {
  static const MacroModel model = [] {
    FlowConfig cfg;
    cfg.label_all_remained = true;
    Framework fw(cfg);
    const Design d =
        generate_design(lib(), tau_testing_suite(lib(), 1000)[4].cfg);
    return fw.run_design(d).model;
  }();
  return model;
}

void BM_FormatMacroModel(benchmark::State& state) {
  const MacroModel& model = leon2_model();
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = macro_model_size_bytes(model,
                                   static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FormatMacroModel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Parsing the .macro text BM_FormatMacroModel formats, from memory.
void BM_ReadMacroModel(benchmark::State& state) {
  static const std::string text = [] {
    std::ostringstream os;
    write_macro_model(leon2_model(), os);
    return os.str();
  }();
  for (auto _ : state) {
    std::istringstream is(text);
    const MacroModel m = read_macro_model(is);
    benchmark::DoNotOptimize(m.graph.num_nodes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadMacroModel)->Unit(benchmark::kMillisecond);

// Parsing the .dsn text of the STA benchmarks' design, from memory.
void BM_ReadDesign(benchmark::State& state) {
  static const std::string text = [] {
    std::ostringstream os;
    write_design(design(), os);
    return os.str();
  }();
  for (auto _ : state) {
    std::istringstream is(text);
    const Design d = read_design(is, lib());
    benchmark::DoNotOptimize(d.num_pins());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadDesign)->Unit(benchmark::kMillisecond);

// The .tmb payload checksum over 4 MB, about a third of the five
// models perfbench's serve workload packs.
void BM_Crc32(benchmark::State& state) {
  static const std::vector<unsigned char> buf = [] {
    std::vector<unsigned char> b(4u << 20);
    Rng rng(32);
    for (auto& c : b) c = static_cast<unsigned char>(rng() >> 56);
    return b;
  }();
  for (auto _ : state)
    benchmark::DoNotOptimize(serve::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

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

// One GNN kernel on the largest training sample's shapes (1087 nodes,
// an input width of state.range(1) = 9 or 32 features, 32 hidden
// units) through one GEMM body: state.range(2) 0 = baseline (4 lanes),
// 1 = AVX2 (8 lanes; skipped without AVX2). state.range(0) picks the
// kernel: 0 matmul (x * W, forward), 1 matmul_at_b (x^T * dz, weight
// gradient), 2 matmul_a_bt (dz * W^T, input gradient, after the
// transpose). About 30% of the x and dz entries are zero, as after a
// ReLU.
void BM_GnnKernel(benchmark::State& state) {
  constexpr std::size_t kNodes = 1087;
  constexpr std::size_t kHidden = 32;
  const std::size_t in = static_cast<std::size_t>(state.range(1));
  if (state.range(2) == 1 && !gemm::has_avx2()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  Rng rng(5);
  const auto seeded = [&](std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    for (float& v : m.data())
      v = rng.chance(0.3) ? 0.0f : static_cast<float>(rng.uniform(-1, 1));
    return m;
  };
  const Matrix x = seeded(kNodes, in);
  const Matrix w = seeded(in, kHidden);
  const Matrix dz = seeded(kNodes, kHidden);
  Matrix wt(kHidden, in);
  for (std::size_t j = 0; j < in; ++j)
    for (std::size_t p = 0; p < kHidden; ++p) wt(p, j) = w(j, p);
  Matrix out_fwd(kNodes, kHidden);
  Matrix out_grad(in, kHidden);
  Matrix out_dx(kNodes, in);
  gemm::Args args;
  switch (state.range(0)) {
    case 0: args = gemm::for_matmul(x, w, out_fwd); break;
    case 1: args = gemm::for_matmul_at_b(x, dz, out_grad); break;
    default: args = gemm::for_matmul_a_bt(dz, wt, out_dx); break;
  }
  const auto body =
      state.range(2) == 1 ? &gemm::run_avx2 : &gemm::run_baseline;
  for (auto _ : state) {
    body(args);
    benchmark::DoNotOptimize(args.out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(args.m * args.k * args.n));
}
BENCHMARK(BM_GnnKernel)
    ->ArgNames({"kernel", "in", "avx2"})
    ->ArgsProduct({{0, 1, 2}, {9, 32}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// TS labeling loop across worker counts (parallelism is across
// candidate pins; each worker's scratch engine stays serial).
void BM_TsEvalParallel(benchmark::State& state) {
  static const IlmResult ilm = extract_ilm(flat_graph());
  const std::vector<bool> cands(ilm.graph.num_nodes(), true);
  TsConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
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

// The record is written only when this benchmark runs: JsonReport::write
// replaces the whole BENCH_micro.json. Select it alone with
// --benchmark_filter=SpeedupRecords.
void BM_SpeedupRecords(benchmark::State& state) {
  bench::JsonReport json("micro");
  for (auto _ : state) record_parallel_speedup(json);
  json.write();
}
BENCHMARK(BM_SpeedupRecords)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
