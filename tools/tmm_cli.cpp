// tmm — command-line driver for the timing-macro-modeling framework.
//
// Global options (before or after the subcommand):
//   --trace <out.json>    write a Chrome trace of the run (load in
//                         chrome://tracing or https://ui.perfetto.dev)
//   --metrics <out.json>  dump the metrics-registry snapshot on exit
//   --resume <dir>        checkpoint/resume directory for `flow` and
//                         `train` (docs/ROBUSTNESS.md); re-running with
//                         the same directory resumes bit-identically
//
// Subcommands (everything uses the built-in generated NLDM library):
//   tmm gen-design <out.dsn> [--pins N] [--seed S] [--name X]
//   tmm import     <in.blif|in.v> [out.dsn] [--out out.dsn] [--lib L]
//                  [--top M] [--clock NET] [--name X]
//                  (real-circuit frontend, docs/FRONTEND.md: parse BLIF
//                  or structural Verilog, lint the flattened netlist
//                  (F001-F004), tech-map onto the generated library —
//                  `.names` nodes become on-demand NK* cells, latches
//                  become DFF_X1 — and write a .dsn; --lib is a library
//                  generator seed or generated-library name, default the
//                  built-in library. Importing the same file twice is
//                  byte-identical.)
//   tmm stats      <in.dsn>
//   tmm sta        <in.dsn> [--no-cppr] [--period PS] [--threads N]
//   tmm train      <out.gnn> <train1.dsn> [train2.dsn ...] [--no-cppr]
//                  [--regression] [--threads N]
//   tmm generate   <in.gnn> <in.dsn> <out.macro> [--no-cppr] [--threads N]
//   tmm evaluate   <in.dsn> <in.macro> [--no-cppr] [--sets K] [--threads N]
//   tmm flow       <run-dir> <design.dsn...> [--no-cppr] [--regression]
//                  [--threads N]
//                  (full pipeline with per-design isolation + resume;
//                  with --resume <dir>, the run-dir positional is
//                  omitted)
//   tmm pack       <in.macro...> [--out file.tmb]  (convert macro models
//                  to the binary serving format; docs/SERVING.md)
//   tmm serve      <model-dir> [--socket path | --port N] [--threads N]
//                  [--batch N] [--cache N] [--quantize Q] [--no-cppr]
//                  [--slow-ms X] [--slow-sample N] [--flight-records N]
//                  [--dump-dir D] [--max-inflight N]
//                  (serve every .tmb in model-dir; SIGTERM drains,
//                  SIGHUP hot-reloads the directory as a new generation
//                  with rollback on any failure; requests past the
//                  --max-inflight admission budget are shed with
//                  kOverloaded; requests slower than --slow-ms land in
//                  the slow log, any serve.* injected fault dumps the
//                  flight recorder into --dump-dir, default the model
//                  dir)
//   tmm stat       <endpoint> [--health | --flight | --reload]
//                  [--watch] [--interval S]
//                  (query a live server's admin channel: windowed stats
//                  JSON by default, or trigger a hot reload with
//                  --reload; endpoint is a unix socket path or a TCP
//                  port 1-65535 on 127.0.0.1. --watch reconnects with
//                  jittered backoff when the server restarts)
//   tmm export-lib <out.lib> [--early]
//   tmm lint       <file...>  (.macro files are linted as macro models,
//                  .tmb files and model directories as serving artifacts,
//                  .blif/.v files through the frontend import lint
//                  (F001-F004, then design+graph lint when mappable),
//                  anything else as designs + their flat timing graphs)
//   tmm lint       --concurrency  (self-audit: exercise the lock-using
//                  subsystems, dump the lock hierarchy, fail on cycles)
//   tmm fault-sites           (list fault-injection sites; see
//                  docs/ROBUSTNESS.md and the TMM_FAULT env variable)
//
// --threads N on the analysis commands caps the worker count of the
// STA runs, the TS loop, GNN training (`train`, `flow`: one training
// design per task) and macro generation (`generate`, `flow`: merged-arc
// composition, the accuracy sets, the model-size count) (N >= 1);
// without it the count is automatic (TMM_THREADS when set, else
// hardware concurrency). All of them run on one shared worker pool of
// that automatic size, so an N above it gets the pool's size. On `serve` it sets the request worker
// count as before. Parallel runs are bit-identical to serial, .gnn
// weights included (docs/PERFORMANCE.md).
//
// Exit codes: 0 success; 1 runtime failure; 2 configuration error
// (unrecognized/misplaced options, malformed TMM_FAULT, checkpoint
// fingerprint mismatch); 3 partial/degraded success (`flow`/`train`
// skipped or degraded some designs — and `lint` findings).

#include <cstdio>
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/design_lint.hpp"
#include "analysis/graph_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analysis/serve_lint.hpp"
#include "fault/fault.hpp"
#include "flow/flow_runner.hpp"
#include "flow/framework.hpp"
#include "frontend/elaborate.hpp"
#include "frontend/frontend.hpp"
#include "frontend/frontend_lint.hpp"
#include "gnn/graphsage.hpp"
#include "liberty/liberty_writer.hpp"
#include "liberty/library_gen.hpp"
#include "netlist/design_gen.hpp"
#include "netlist/netlist_io.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/reload.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "serve/tmb.hpp"
#include "util/lockorder.hpp"
#include "util/log.hpp"
#include "util/task_pool.hpp"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <thread>

namespace {

using namespace tmm;

const Library& default_library() {
  static const Library lib = generate_library();
  return lib;
}

/// Bad invocation (unknown/misplaced option): exit code 2, distinct
/// from runtime failures (1) and lint findings (3).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> positional;
  bool cppr = true;
  bool regression = false;
  std::size_t pins = 5000;
  std::uint64_t seed = 1;
  std::string name = "design";
  double period = 1000.0;
  std::size_t sets = 4;
  bool early = false;
  /// True when --name was given explicitly (import: override the
  /// design name instead of keeping the top model's).
  bool name_given = false;
  // Frontend options (`tmm import` / `tmm flow`, docs/FRONTEND.md).
  std::string lib;    ///< library: generator seed or generated name
  std::string top;    ///< top model override
  std::string clock;  ///< clock net override
  /// Copied from GlobalOpts: checkpoint/resume directory.
  std::string resume_dir;
  // Serving options (`tmm pack` / `tmm serve`, docs/SERVING.md).
  std::string out;       ///< pack: output .tmb path
  std::string socket;    ///< serve: unix socket path
  int port = -1;         ///< serve: TCP port (0 = ephemeral)
  /// serve: request workers (default 4). For the analysis commands the
  /// default is unused — see sta_threads(); threads_given tells an
  /// explicit --threads apart from the serve default.
  std::size_t threads = 4;
  bool threads_given = false;
  std::size_t batch = 16;
  std::size_t cache = 4096;
  double quantize = 0.0;
  /// lint: concurrency self-audit (lock hierarchy dump + cycle gate).
  bool concurrency = false;
  // Live-telemetry options (`tmm serve` / `tmm stat`).
  double slow_ms = 0.0;          ///< serve: slow-log threshold (0 = off)
  std::size_t slow_sample = 1;   ///< serve: log every Nth slow request
  std::size_t flight_records = 256;  ///< serve: per-thread ring (0 = off)
  std::string dump_dir;          ///< serve: dump-on-fault directory
  std::size_t max_inflight = 0;  ///< serve: admission budget (0 = derived)
  bool health = false;           ///< stat: kHealth instead of kStats
  bool flight = false;           ///< stat: kFlightDump instead of kStats
  bool reload = false;           ///< stat: kReload (trigger a hot reload)
  bool watch = false;            ///< stat: repeat until interrupted
  double interval = 2.0;         ///< stat: --watch period, seconds
};

/// Options valid with every subcommand.
struct GlobalOpts {
  std::string trace_path;
  std::string metrics_path;
  std::string resume_dir;
};

/// Parse the arguments after the subcommand. Every option must be in
/// the subcommand's `allowed` list: `tmm lint --pins 5 x.dsn` is an
/// error, not a silently ignored flag.
Args parse(int argc, char** argv, int first, const std::string& cmd,
           const std::vector<std::string_view>& allowed, GlobalOpts& g) {
  Args args;
  static constexpr std::string_view kKnownFlags[] = {
      "--no-cppr", "--regression", "--pins",    "--seed",
      "--name",    "--period",     "--sets",    "--early",
      "--out",     "--socket",     "--port",    "--threads",
      "--batch",   "--cache",      "--quantize", "--concurrency",
      "--slow-ms", "--slow-sample", "--flight-records", "--dump-dir",
      "--health",  "--flight",     "--watch",   "--interval",
      "--max-inflight", "--reload", "--lib",    "--top",
      "--clock"};
  auto check_allowed = [&](std::string_view a) {
    if (std::find(allowed.begin(), allowed.end(), a) != allowed.end()) return;
    const bool known = std::find(std::begin(kKnownFlags), std::end(kKnownFlags),
                                 a) != std::end(kKnownFlags);
    if (known)
      throw UsageError("option " + std::string(a) +
                       " is not valid for subcommand '" + cmd + "'");
    throw UsageError("unknown option " + std::string(a));
  };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--trace") {
      g.trace_path = next();
      continue;
    }
    if (a == "--metrics") {
      g.metrics_path = next();
      continue;
    }
    if (a == "--resume") {
      g.resume_dir = next();
      continue;
    }
    if (a.rfind("--", 0) == 0) check_allowed(a);
    if (a == "--no-cppr")
      args.cppr = false;
    else if (a == "--regression")
      args.regression = true;
    else if (a == "--pins")
      args.pins = std::stoul(next());
    else if (a == "--seed")
      args.seed = std::stoull(next());
    else if (a == "--name") {
      args.name = next();
      args.name_given = true;
    }
    else if (a == "--period")
      args.period = std::stod(next());
    else if (a == "--sets")
      args.sets = std::stoul(next());
    else if (a == "--early")
      args.early = true;
    else if (a == "--out")
      args.out = next();
    else if (a == "--socket")
      args.socket = next();
    else if (a == "--port")
      args.port = std::stoi(next());
    else if (a == "--threads") {
      args.threads = std::stoul(next());
      args.threads_given = true;
      if (args.threads == 0)
        throw UsageError("--threads must be a positive integer");
    }
    else if (a == "--batch")
      args.batch = std::stoul(next());
    else if (a == "--cache")
      args.cache = std::stoul(next());
    else if (a == "--quantize")
      args.quantize = std::stod(next());
    else if (a == "--concurrency")
      args.concurrency = true;
    else if (a == "--slow-ms")
      args.slow_ms = std::stod(next());
    else if (a == "--slow-sample")
      args.slow_sample = std::stoul(next());
    else if (a == "--flight-records")
      args.flight_records = std::stoul(next());
    else if (a == "--dump-dir")
      args.dump_dir = next();
    else if (a == "--max-inflight")
      args.max_inflight = std::stoul(next());
    else if (a == "--reload")
      args.reload = true;
    else if (a == "--health")
      args.health = true;
    else if (a == "--flight")
      args.flight = true;
    else if (a == "--watch")
      args.watch = true;
    else if (a == "--interval")
      args.interval = std::stod(next());
    else if (a == "--lib")
      args.lib = next();
    else if (a == "--top")
      args.top = next();
    else if (a == "--clock")
      args.clock = next();
    else if (a.rfind("--", 0) == 0)
      throw UsageError("unknown option " + a);
    else
      args.positional.push_back(a);
  }
  args.resume_dir = g.resume_dir;
  return args;
}

/// Library generator seed behind a --lib value: empty = default, all
/// digits = an explicit seed, otherwise a generated-library name
/// ("tmm_nldm45" / "tmm_nldm45_s<seed>").
std::uint64_t lib_seed_from(const std::string& lib) {
  if (lib.empty()) return LibraryGenConfig{}.seed;
  if (std::all_of(lib.begin(), lib.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; }))
    return std::stoull(lib);
  LibraryGenConfig cfg;
  if (!library_config_for_name(lib, &cfg))
    throw UsageError("--lib must be a library generator seed or a "
                     "generated library name, got '" + lib + "'");
  return cfg.seed;
}

frontend::FrontendConfig frontend_config(const Args& args) {
  frontend::FrontendConfig cfg;
  cfg.lib_seed = lib_seed_from(args.lib);
  cfg.top = args.top;
  cfg.clock = args.clock;
  if (args.name_given) cfg.design_name = args.name;
  return cfg;
}

/// Load a design from any supported path: .blif/.v are imported
/// through the frontend (against the registry library for the default
/// seed), .dsn files read against the built-in library — or, when they
/// reference frontend-synthesized NK* cells, against the registry with
/// those cells re-synthesized from their names.
Design load_design(const std::string& path) {
  return frontend::load_design_any(path, {}, &default_library());
}

/// STA/TS worker count for the analysis commands: an explicit
/// --threads N wins, otherwise 0 = auto (TMM_THREADS when set, else
/// hardware concurrency — util::TaskPool::default_threads()).
std::size_t sta_threads(const Args& args) {
  return args.threads_given ? args.threads : 0;
}

/// The flow settings `train`, `generate` and `flow` take from the flags.
FlowConfig flow_config(const Args& args) {
  FlowConfig cfg;
  cfg.cppr = args.cppr;
  cfg.cppr_feature = args.cppr;
  cfg.regression = args.regression;
  cfg.threads = sta_threads(args);
  return cfg;
}

int cmd_gen_design(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("gen-design: output path required");
  DesignGenConfig cfg;
  cfg.name = args.name;
  cfg.seed = args.seed;
  const double budget = static_cast<double>(args.pins) / 3.3;
  cfg.num_flops = std::max<std::size_t>(8, static_cast<std::size_t>(budget * 0.1));
  cfg.levels = 8;
  cfg.gates_per_level = std::max<std::size_t>(
      4, static_cast<std::size_t>(budget * 0.85) / cfg.levels);
  cfg.num_data_inputs =
      std::clamp<std::size_t>(static_cast<std::size_t>(budget / 60.0), 8, 256);
  cfg.num_outputs = cfg.num_data_inputs;
  const Design d = generate_design(default_library(), cfg);
  const std::size_t bytes = write_design_file(d, args.positional[0]);
  std::printf("wrote %s: %zu pins, %zu cells, %zu nets (%zu bytes)\n",
              args.positional[0].c_str(), d.num_pins(), d.num_gates(),
              d.num_nets(), bytes);
  return 0;
}

int cmd_import(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("import: <netlist.blif|netlist.v> required");
  if (args.positional.size() > 2)
    throw UsageError("import: expected <input> [output.dsn]");
  const std::string& in = args.positional[0];
  if (!frontend::is_frontend_path(in))
    throw UsageError("import: input must be a .blif or .v file, got '" + in +
                     "'");
  std::string out = args.out;
  if (out.empty() && args.positional.size() == 2) out = args.positional[1];
  if (!args.out.empty() && args.positional.size() == 2)
    throw UsageError("import: give either --out or an output positional");
  if (out.empty()) {
    // Default: input path with the extension swapped for .dsn.
    out = in;
    const std::size_t dot = out.rfind('.');
    if (dot != std::string::npos && out.find('/', dot) == std::string::npos)
      out.resize(dot);
    out += ".dsn";
  }
  frontend::ImportStats st;
  analysis::LintReport report;
  const Design d =
      frontend::import_file(in, frontend_config(args), &st, &report);
  const std::size_t bytes = write_design_file(d, out);
  std::printf("imported %s -> %s: %zu model(s), %zu primitive(s), "
              "%zu gates (%zu latches), %zu nets, %zu pins, library %s "
              "(+%zu cell(s) synthesized), clock %s (%zu bytes)\n",
              in.c_str(), out.c_str(), st.models, st.flat_prims, st.gates,
              st.latches, st.nets, st.pins, d.library().name().c_str(),
              st.cells_synthesized,
              st.clock.empty() ? "none" : st.clock.c_str(), bytes);
  if (report.warnings() > 0)
    std::fputs(report.to_string().c_str(), stdout);
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("stats: design path required");
  const Design d = load_design(args.positional[0]);
  std::size_t ffs = 0;
  for (GateId g = 0; g < d.num_gates(); ++g)
    if (d.library().cell(d.gate(g).cell).is_sequential) ++ffs;
  std::printf("design %s\n  pins  %zu\n  cells %zu (%zu flops)\n  nets  "
              "%zu\n  PIs   %zu\n  POs   %zu\n",
              d.name().c_str(), d.num_pins(), d.num_gates(), ffs,
              d.num_nets(), d.primary_inputs().size(),
              d.primary_outputs().size());
  return 0;
}

int cmd_sta(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("sta: design path required");
  const Design d = load_design(args.positional[0]);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g, {.cppr = args.cppr, .threads = sta_threads(args)});
  sta.run(nominal_constraints(d.primary_inputs().size(),
                              d.primary_outputs().size(), args.period));
  std::printf("%s @ %.0f ps (CPPR %s):\n", d.name().c_str(), args.period,
              args.cppr ? "on" : "off");
  std::printf("  worst setup slack: %10.3f ps\n", sta.worst_slack(kLate));
  std::printf("  worst hold  slack: %10.3f ps\n", sta.worst_slack(kEarly));

  unsigned rf = kRise;
  const NodeId endpoint = sta.worst_endpoint(kLate, &rf);
  if (endpoint != kInvalidId) {
    std::printf("\n  critical setup path (endpoint %s, %s):\n",
                g.node(endpoint).name.c_str(), rf == kRise ? "rise" : "fall");
    const auto path = sta.worst_path(endpoint, kLate, rf);
    double prev = path.empty() ? 0.0 : path.front().at;
    for (const auto& step : path) {
      std::printf("    %-28s %c  at %9.3f ps  (+%7.3f)\n",
                  g.node(step.node).name.c_str(),
                  step.rf == kRise ? 'r' : 'f', step.at, step.at - prev);
      prev = step.at;
    }
  }
  return 0;
}

/// End-of-run degradation summary shared by `train` and `flow`
/// (docs/ROBUSTNESS.md): every skipped/degraded design with its
/// diagnostic, so partial results are never silently partial.
void print_degradation(const std::vector<DesignFailure>& failed,
                       const std::vector<std::string>& degraded) {
  for (const auto& f : failed)
    std::printf("  FAILED   %s: %s\n", f.design.c_str(), f.error.c_str());
  for (const auto& d : degraded)
    std::printf("  DEGRADED %s: conservative fallbacks applied\n", d.c_str());
}

int cmd_train(const Args& args) {
  if (args.positional.size() < 2)
    throw std::runtime_error("train: <out.gnn> <train.dsn...> required");
  FlowConfig cfg = flow_config(args);
  cfg.checkpoint_dir = args.resume_dir;
  Framework fw(cfg);
  std::vector<Design> designs;
  for (std::size_t i = 1; i < args.positional.size(); ++i)
    designs.push_back(load_design(args.positional[i]));
  const TrainingSummary sum = fw.train(designs);
  std::printf("trained on %zu designs: %zu pins (%zu timing-variant), "
              "filter removed %.1f%%, %zu epochs, loss %.4f\n",
              sum.designs, sum.labeled_pins, sum.positives,
              sum.mean_filtered_fraction * 100.0, sum.report.epochs_run,
              sum.report.final_loss);
  if (sum.designs_from_checkpoint > 0 || sum.model_from_checkpoint)
    std::printf("resumed from %s: %zu design(s)%s restored\n",
                args.resume_dir.c_str(), sum.designs_from_checkpoint,
                sum.model_from_checkpoint ? " + model" : "");
  save_gnn_file(fw.model(), args.positional[0]);
  std::printf("model written to %s\n", args.positional[0].c_str());
  print_degradation(sum.failed, sum.degraded);
  return sum.failed.empty() && sum.degraded.empty() ? 0 : 3;
}

int cmd_flow(const Args& args) {
  std::string dir = args.resume_dir;
  std::size_t first_design = 0;
  if (dir.empty()) {
    if (args.positional.size() < 2)
      throw UsageError("flow: <run-dir> <design.dsn...> required "
                       "(or --resume <dir> plus designs)");
    dir = args.positional[0];
    first_design = 1;
  } else if (args.positional.empty()) {
    throw UsageError("flow: at least one design required");
  }
  std::vector<std::string> paths(args.positional.begin() +
                                     static_cast<std::ptrdiff_t>(first_design),
                                 args.positional.end());
  const flow::FlowRunReport report = flow::run_flow(
      paths, dir, flow_config(args), default_library(), frontend_config(args));
  std::printf("flow: trained on %zu design(s)%s, %zu modeled, %zu failed\n",
              report.training.designs,
              report.training.designs_from_checkpoint > 0 ||
                      report.training.model_from_checkpoint
                  ? " (resumed)"
                  : "",
              report.completed.size(),
              report.failed.size() + report.training.failed.size());
  for (const auto& o : report.completed)
    std::printf("  OK       %s -> %s%s\n", o.design.c_str(),
                o.macro_path.c_str(), o.from_checkpoint ? " (resumed)" : "");
  print_degradation(report.training.failed, report.training.degraded);
  print_degradation(report.failed, {});
  return report.degraded() ? 3 : 0;
}

int cmd_fault_sites(const Args&) {
  for (const std::string_view site : fault::registered_sites())
    std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
  return 0;
}

int cmd_generate(const Args& args) {
  if (args.positional.size() < 3)
    throw std::runtime_error("generate: <in.gnn> <in.dsn> <out.macro>");
  Framework fw(flow_config(args));
  fw.set_model(load_gnn_file(args.positional[0]));
  const Design d = load_design(args.positional[1]);
  DesignResult r = fw.run_design(d);
  write_macro_model_file(r.model, args.positional[2]);
  std::printf("macro for %s: %zu -> %zu pins, %zu bytes, max boundary "
              "error %.4f ps (gen %.3f s)\n",
              d.name().c_str(), r.gen.ilm_pins, r.gen.model_pins,
              r.model_file_bytes, r.acc.max_err_ps,
              r.gen.generation_seconds);
  return 0;
}

int cmd_evaluate(const Args& args) {
  if (args.positional.size() < 2)
    throw std::runtime_error("evaluate: <in.dsn> <in.macro>");
  const Design d = load_design(args.positional[0]);
  const MacroModel model = read_macro_model_file(args.positional[1]);
  const TimingGraph flat = build_timing_graph(d);
  Rng rng(0xC11);
  std::vector<BoundaryConstraints> sets;
  for (std::size_t i = 0; i < args.sets; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  Sta::Options sta_opt;
  sta_opt.cppr = args.cppr;
  sta_opt.threads = sta_threads(args);
  const AccuracyReport rep =
      evaluate_accuracy(flat, model.graph, sets, sta_opt);
  std::printf("%s vs %s over %zu constraint sets (CPPR %s):\n",
              args.positional[1].c_str(), d.name().c_str(), args.sets,
              args.cppr ? "on" : "off");
  std::printf("  max error %.4f ps, avg error %.4f ps, %zu values, "
              "%zu structural mismatches\n",
              rep.max_err_ps, rep.avg_err_ps, rep.compared_values,
              rep.structural_mismatches);
  return rep.structural_mismatches == 0 ? 0 : 2;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// `tmm lint --concurrency`: self-audit of the process's own lock
/// hierarchy. Exercises every concurrent subsystem the binary links
/// (metrics, trace, result cache, fault plan) so their acquisition
/// edges are observed, then dumps the registered classes + edges and
/// gates on the cycle verdict. In builds without acquisition tracking
/// the dump still lists every registered class; the report says so.
int lint_concurrency() {
  // obs.metrics.registry: registration + snapshot paths.
  obs::counter("lint.concurrency.probe").add();
  std::ostringstream sink;
  obs::write_metrics_json(sink);
  // obs.trace.registry -> obs.trace.buffer: the one intended nesting.
  obs::set_tracing_enabled(true);
  { obs::Span span("lint.concurrency"); }
  obs::trace_event_count();
  obs::set_tracing_enabled(false);
  // serve.cache.shard: lookup miss, insert, eviction-free stats sweep.
  serve::ResultCache cache(/*capacity=*/8, /*num_shards=*/2);
  BoundarySnapshot snap;
  cache.lookup("probe", snap);
  cache.insert("probe", snap);
  cache.stats();
  // util.taskpool.job -> util.taskpool.queue: a real multi-threaded
  // parallel_for on the shared pool, so both pool classes and their one
  // intended nesting are observed (the STA worker-dispatch path).
  {
    std::atomic<std::size_t> pool_sum{0};
    util::TaskPool::shared().parallel_for(
        64, 4, /*max_threads=*/0, [&](std::size_t b, std::size_t e) {
          pool_sum.fetch_add(e - b, std::memory_order_relaxed);
        });
    if (pool_sum.load() != 64)
      throw std::runtime_error("task pool self-check lost chunks");
  }
  // fault.plan: arm/disarm round trip (restores the disarmed state).
  if (fault::arm("sta.run", 1).ok()) fault::disarm();
  // fault.firehook: set + clear the fire observer.
  fault::set_fire_hook([](const char*) {});
  fault::set_fire_hook({});
  // obs.flightrec.registry: enable, record, drain, reset.
  obs::set_flight_recorder_enabled(true, /*per_thread_capacity=*/8);
  obs::FlightRecord rec;
  rec.set_model("probe");
  rec.set_status("ok");
  obs::flight_record(rec);
  obs::flight_snapshot();
  obs::set_flight_recorder_enabled(false);
  obs::reset_flight_recorder();
  // serve.stats.slowlog: a slow request lands in the ring; the huge
  // sample keeps the probe out of stderr.
  serve::ServeStats stats({"probe"}, /*start_us=*/0,
                          {.slow_threshold_us = 1, .slow_sample = 1u << 30});
  serve::RequestTimings t;
  t.total_us = 5.0;
  stats.record(1'000'000, "probe", serve::ResponseStatus::kOk,
               /*cache_hit=*/false, serve::ShedKind::kNone, t,
               /*request_id=*/1);
  stats.stats_json(1'000'000);
  // serve.registry.reload -> serve.registry.generation: a reload pass
  // (here failing on a nonexistent directory — the rollback path takes
  // the same locks) plus a reader-side pin.
  serve::RegistryManager probe_manager("tmm-lint-concurrency-noexist");
  probe_manager.current();
  (void)probe_manager.reload();

  const bool acyclic = util::lockorder::write_report(std::cout);
  return acyclic ? 0 : 3;
}

int cmd_lint(const Args& args) {
  if (args.concurrency) {
    if (!args.positional.empty())
      throw UsageError("lint --concurrency takes no files");
    return lint_concurrency();
  }
  if (args.positional.empty())
    throw std::runtime_error("lint: at least one file required");
  std::size_t total_errors = 0;
  for (const std::string& path : args.positional) {
    analysis::LintReport report;
    if (std::filesystem::is_directory(path)) {
      report = analysis::lint_registry_dir(path);
    } else if (has_suffix(path, ".tmb")) {
      report = analysis::lint_tmb_file(path);
    } else if (has_suffix(path, ".macro")) {
      report = analysis::lint_model(read_macro_model_file(path));
    } else if (frontend::is_frontend_path(path)) {
      // Frontend import lint: connectivity rules (F001-F004) against
      // source locations; when the netlist maps cleanly, the mapped
      // design and its timing graph are linted too.
      const frontend::FrontendConfig fcfg = frontend_config(args);
      const frontend::IrNetlist ir = frontend::parse_file(path);
      Library& flib = frontend::library_for_seed(fcfg.lib_seed);
      const frontend::FlatNetlist flat =
          frontend::elaborate(ir, flib, fcfg.top, &report);
      report.merge(frontend::lint_flat(flat, flib));
      if (report.errors() == 0) {
        const Design d = frontend::map_netlist(flat, flib, fcfg);
        report.merge(analysis::lint_design(d));
        report.merge(analysis::lint_graph(build_timing_graph(d)));
      }
    } else {
      const Design d = load_design(path);
      report = analysis::lint_design(d);
      report.merge(analysis::lint_graph(build_timing_graph(d)));
    }
    std::printf("%s: %zu diagnostic(s), %zu error(s), %zu warning(s)\n",
                path.c_str(), report.size(), report.errors(),
                report.warnings());
    if (!report.empty()) std::fputs(report.to_string().c_str(), stdout);
    total_errors += report.errors();
  }
  return total_errors == 0 ? 0 : 3;
}

int cmd_pack(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("pack: at least one .macro file required");
  if (!args.out.empty() && args.positional.size() > 1)
    throw UsageError("pack: --out is only valid with a single input");
  for (const std::string& path : args.positional) {
    const MacroModel model = read_macro_model_file(path);
    std::string out = args.out;
    if (out.empty()) {
      out = path;
      const std::size_t dot = out.rfind('.');
      if (dot != std::string::npos && out.find('/', dot) == std::string::npos)
        out.resize(dot);
      out += ".tmb";
    }
    const std::size_t bytes = serve::write_tmb_file(model, out);
    std::printf("packed %s -> %s: %zu pins, %zu arcs, %zu bytes\n",
                path.c_str(), out.c_str(), model.num_pins(),
                model.num_arcs(), bytes);
  }
  return 0;
}

serve::Server* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

extern "C" void handle_reload_signal(int) {
  if (g_server != nullptr) g_server->request_reload();
}

int cmd_serve(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("serve: model directory required");
  const std::string& dir = args.positional[0];

  // Reloads are validated with the serving-artifact lint (S001–S003)
  // before the swap: a pack that fails lint never replaces a serving
  // generation. Startup is laxer (per-file isolation, degraded exit 3).
  serve::RegistryManager manager(dir, [](const std::string& d) {
    const analysis::LintReport report = analysis::lint_registry_dir(d);
    return report.errors() == 0 ? std::string() : report.to_string();
  });
  const std::size_t loaded = manager.load_initial();
  const std::shared_ptr<const serve::ModelRegistry> registry =
      manager.current();
  for (const auto& [name, entry] : registry->entries())
    std::printf("  model %-24s %u PIs, %u POs (%s)\n", name.c_str(),
                entry.num_pis, entry.num_pos, entry.path.c_str());
  for (const auto& f : registry->failures())
    std::printf("  FAILED   %s: %s\n", f.path.c_str(), f.error.c_str());

  serve::Evaluator::Options eopt;
  eopt.quantum_ps = args.quantize;
  eopt.cache_capacity = args.cache;
  eopt.sta.cppr = args.cppr;
  serve::Evaluator evaluator(manager, eopt);

  serve::ServerOptions sopt;
  if (!args.socket.empty())
    sopt.unix_path = args.socket;
  else if (args.port >= 0)
    sopt.tcp_port = args.port;
  else
    sopt.unix_path = dir + "/tmm.sock";  // default endpoint
  sopt.num_threads = static_cast<int>(args.threads);
  sopt.batch_max = static_cast<int>(args.batch);
  sopt.slow_threshold_us =
      static_cast<std::uint64_t>(args.slow_ms * 1000.0);
  sopt.slow_sample = static_cast<std::uint32_t>(args.slow_sample);
  sopt.flight_capacity = args.flight_records;
  sopt.dump_dir = args.dump_dir.empty() ? dir : args.dump_dir;
  sopt.max_inflight = args.max_inflight;
  serve::Server server(evaluator, sopt);
  server.start();

  g_server = &server;
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  std::signal(SIGHUP, handle_reload_signal);

  if (!sopt.unix_path.empty())
    std::printf("serving %zu model(s) on unix:%s (%zu threads, batch %zu, "
                "cache %zu)\n",
                loaded, sopt.unix_path.c_str(), args.threads, args.batch,
                args.cache);
  else
    std::printf("serving %zu model(s) on 127.0.0.1:%d (%zu threads, batch "
                "%zu, cache %zu)\n",
                loaded, server.bound_port(), args.threads, args.batch,
                args.cache);
  std::fflush(stdout);

  server.serve();
  g_server = nullptr;
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);

  const serve::Server::Stats st = server.stats();
  const serve::CacheStats cs = evaluator.cache_stats();
  const serve::RegistryManager::Counters rc = manager.counters();
  std::printf("drained: %llu connection(s), %llu request(s) (%llu ok, %llu "
              "error, %llu overloaded), %llu batch(es), %llu abort(s); cache "
              "%llu hit / %llu miss / %llu evicted (%.1f%% hit rate); "
              "generation %llu (%llu reload(s) ok, %llu failed)\n",
              static_cast<unsigned long long>(st.connections),
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.responses_ok),
              static_cast<unsigned long long>(st.request_errors),
              static_cast<unsigned long long>(st.shed_overload),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.conn_aborts),
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.evictions),
              cs.hit_rate() * 100.0,
              static_cast<unsigned long long>(rc.generation),
              static_cast<unsigned long long>(rc.reloads_ok),
              static_cast<unsigned long long>(rc.reload_failures));
  // Some models failed to load but the survivors served: degraded (3),
  // matching flow/train semantics.
  return registry->failures().empty() ? 0 : 3;
}

int cmd_stat(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error(
        "stat: server endpoint required (socket path or port)");
  if (static_cast<int>(args.health) + static_cast<int>(args.flight) +
          static_cast<int>(args.reload) >
      1)
    throw UsageError(
        "stat: --health, --flight and --reload are mutually exclusive");
  if (args.reload && args.watch)
    throw UsageError("stat: --reload cannot be combined with --watch");
  const serve::RequestKind kind = args.health ? serve::RequestKind::kHealth
                                 : args.flight ? serve::RequestKind::kFlightDump
                                 : args.reload ? serve::RequestKind::kReload
                                               : serve::RequestKind::kStats;
  // Parsed once, up front: a misspelled endpoint (bad path, port out
  // of range) is a kConfig error, never retried.
  const serve::Endpoint ep = serve::parse_endpoint(args.positional[0]);
  std::uint64_t id = 1;
  int fd = -1;
  // --watch survives server restarts and generation swaps: on any
  // socket error the connection is re-established with jittered
  // exponential backoff (0.1 s .. 5 s cap, serve/client.hpp) instead of
  // exiting on the first EOF.
  // A request written into a connection the server already closed must
  // surface as EPIPE (a reconnect), not kill the process; a closed
  // stdout still ends the command through the flush check below.
  std::signal(SIGPIPE, SIG_IGN);
  Rng rng(static_cast<std::uint64_t>(::getpid()));
  serve::Backoff backoff(rng, 0.1, 5.0);
  int consecutive_failures = 0;
  constexpr int kMaxConsecutiveFailures = 60;
  for (;;) {
    try {
      if (fd < 0) fd = serve::connect_endpoint(ep);
      serve::Request req;
      req.request_id = id++;
      req.kind = kind;
      const serve::Response resp = serve::call(fd, req);
      if (resp.status != serve::ResponseStatus::kOk)
        throw std::runtime_error(
            std::string("server answered ") +
            serve::response_status_name(resp.status) +
            (resp.error.empty() ? "" : ": " + resp.error));
      std::fputs(resp.text.c_str(), stdout);
      if (std::fflush(stdout) != 0) return 1;  // the reader went away
      backoff.reset();
      consecutive_failures = 0;
      if (!args.watch) break;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(args.interval, 0.1)));
    } catch (const std::exception& e) {
      if (fd >= 0) ::close(fd);
      fd = -1;
      if (!args.watch || ++consecutive_failures > kMaxConsecutiveFailures)
        throw;
      const double delay_s = backoff.next_s();
      std::fprintf(stderr, "tmm stat: %s; reconnecting in %.1fs\n", e.what(),
                   delay_s);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
    }
  }
  if (fd >= 0) ::close(fd);
  return 0;
}

int cmd_export_lib(const Args& args) {
  if (args.positional.empty())
    throw std::runtime_error("export-lib: output path required");
  std::ofstream os(args.positional[0]);
  LibertyWriteOptions opt;
  opt.el = args.early ? kEarly : kLate;
  const std::size_t bytes = write_liberty(default_library(), os, opt);
  std::printf("wrote %s (%s corner, %zu bytes, %zu cells)\n",
              args.positional[0].c_str(), args.early ? "early" : "late",
              bytes, default_library().num_cells());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tmm [--trace out.json] [--metrics out.json] "
               "[--resume dir] "
               "<gen-design|import|stats|sta|train|generate|evaluate|flow|"
               "pack|serve|stat|export-lib|lint|fault-sites> "
               "[args...]  (see tools/tmm_cli.cpp header)\n");
  return 64;
}

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> allowed;
};

const Command kCommands[] = {
    {"gen-design", cmd_gen_design, {"--pins", "--seed", "--name"}},
    {"import", cmd_import,
     {"--out", "--lib", "--top", "--clock", "--name"}},
    {"stats", cmd_stats, {}},
    {"sta", cmd_sta, {"--no-cppr", "--period", "--threads"}},
    {"train", cmd_train, {"--no-cppr", "--regression", "--threads"}},
    {"generate", cmd_generate, {"--no-cppr", "--regression", "--threads"}},
    {"evaluate", cmd_evaluate, {"--no-cppr", "--sets", "--threads"}},
    {"flow", cmd_flow,
     {"--no-cppr", "--regression", "--threads", "--lib", "--top",
      "--clock"}},
    {"pack", cmd_pack, {"--out"}},
    {"serve", cmd_serve,
     {"--socket", "--port", "--threads", "--batch", "--cache", "--quantize",
      "--no-cppr", "--slow-ms", "--slow-sample", "--flight-records",
      "--dump-dir", "--max-inflight"}},
    {"stat", cmd_stat,
     {"--health", "--flight", "--reload", "--watch", "--interval"}},
    {"export-lib", cmd_export_lib, {"--early"}},
    {"lint", cmd_lint, {"--concurrency", "--lib", "--top", "--clock"}},
    {"fault-sites", cmd_fault_sites, {}},
};

/// Flush the requested observability outputs; never throws (a failed
/// dump must not change the subcommand's exit code).
void write_observability(const GlobalOpts& g) {
  if (!g.trace_path.empty() && !obs::write_chrome_trace_file(g.trace_path))
    std::fprintf(stderr, "tmm: cannot write trace to %s\n",
                 g.trace_path.c_str());
  if (!g.metrics_path.empty() &&
      !obs::write_metrics_json_file(g.metrics_path))
    std::fprintf(stderr, "tmm: cannot write metrics to %s\n",
                 g.metrics_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  GlobalOpts global;
  int first = 1;
  std::string cmd;
  try {
    // Arm the deterministic fault-injection harness before anything
    // else runs (docs/ROBUSTNESS.md); a malformed TMM_FAULT spec is a
    // configuration error (exit 2), never a silent no-op.
    if (const fault::Status s = fault::arm_from_env(); !s.ok())
      throw UsageError(s.message());
    // Same policy for TMM_THREADS: a malformed thread-count spec is a
    // configuration error up front, not a mid-run warning.
    {
      std::string terr;
      util::TaskPool::env_threads(&terr);
      if (!terr.empty()) throw UsageError(terr);
    }
    // Global options may precede the subcommand.
    while (first < argc && std::strncmp(argv[first], "--", 2) == 0) {
      const std::string a = argv[first];
      if (a == "--trace" || a == "--metrics" || a == "--resume") {
        if (first + 1 >= argc) throw UsageError("missing value for " + a);
        (a == "--trace"     ? global.trace_path
         : a == "--metrics" ? global.metrics_path
                            : global.resume_dir) = argv[first + 1];
        first += 2;
      } else {
        throw UsageError("unknown global option " + a);
      }
    }
    if (first >= argc) return usage();
    cmd = argv[first];
    const Command* command = nullptr;
    for (const Command& c : kCommands)
      if (c.name == cmd) command = &c;
    if (command == nullptr) return usage();

    const Args args =
        parse(argc, argv, first + 1, cmd, command->allowed, global);
    if (!global.trace_path.empty()) obs::set_tracing_enabled(true);
    log_info("tmm %s: starting (trace=%s, metrics=%s)", cmd.c_str(),
             global.trace_path.empty() ? "off" : global.trace_path.c_str(),
             global.metrics_path.empty() ? "off"
                                         : global.metrics_path.c_str());
    int rc = 0;
    std::exception_ptr err;
    {
      // Scope the top-level span so it is recorded (and therefore
      // exported) even when the subcommand throws.
      const std::string span_name = "tmm." + cmd;
      obs::Span span(span_name.c_str());
      obs::trace_rss_sample();
      try {
        rc = command->run(args);
      } catch (...) {
        err = std::current_exception();
      }
      obs::trace_rss_sample();
    }
    write_observability(global);
    if (err) std::rethrow_exception(err);
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "tmm%s%s: %s\n", cmd.empty() ? "" : " ",
                 cmd.c_str(), e.what());
    return 2;
  } catch (const fault::FlowError& e) {
    std::fprintf(stderr, "tmm %s: %s\n", cmd.c_str(), e.what());
    // A config-class flow error (checkpoint fingerprint mismatch, bad
    // flow configuration) is the caller's mistake: exit 2, like usage
    // errors, so scripts can tell it from a runtime failure.
    return e.code() == fault::ErrorCode::kConfig ? 2 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmm %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
