// `generate`: a model trained during set-up turns the eleven testing
// designs (written as .dsn) and the examples/blif circuits into macro
// models — per input load_design_any, Framework::run_design,
// write_macro_model_file, the calls of `tmm generate` and of stage 3 of
// `tmm flow`. It bypasses the TS loop and GNN training; model writing
// and merging show here.

#include <algorithm>
#include <filesystem>

#include "workloads.hpp"

namespace pb {

using namespace tmm;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct GenerateInputs {
  TrainOutcome model;
  std::vector<std::string> designs;  ///< the seeded .dsn files
  std::vector<std::string> inputs;   ///< designs, then examples/blif
};

/// The testing designs, seeded.
std::vector<std::string> write_designs(std::uint64_t seed,
                                       const std::string& dir) {
  return write_suite(
      seeded(tau_testing_suite(library(), kGenerateScale), mix(seed, 0x6e0)),
      dir);
}

GenerateInputs set_up(std::uint64_t seed, const std::string& dir,
                      Report& report) {
  GenerateInputs in;
  in.model = setup_model(dir, report);
  in.designs = write_designs(seed, dir);
  in.inputs = in.designs;
  std::vector<std::string> blif;
  for (const auto& f : std::filesystem::directory_iterator("examples/blif")) {
    const std::string ext = f.path().extension().string();
    if (ext == ".blif" || ext == ".v") blif.push_back(f.path().string());
  }
  if (blif.empty()) throw std::runtime_error("examples/blif has no circuits");
  std::sort(blif.begin(), blif.end());
  in.inputs.insert(in.inputs.end(), blif.begin(), blif.end());
  return in;
}

std::string macro_path(const std::string& dir, const std::string& input) {
  return dir + "/" + std::filesystem::path(input).stem().string() + ".macro";
}

}  // namespace

Report run_generate(const Args& args) {
  Report r;
  WorkDir work("generate");

  std::vector<double> setups;
  GenerateInputs in;
  std::uint64_t used = 0;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    in = set_up(args.seed, work.path(), r);
    setups.push_back(now_s() - t0);
    if (i == 0) used = hash_files(in.designs);
  }
  const std::string next_dir = work.file("next");
  std::filesystem::create_directories(next_dir);
  check_seeded_inputs(used, hash_files(in.designs),
                      hash_files(write_designs(args.seed + 1, next_dir)), r);

  const FlowConfig cfg = offline_config();
  Framework fw = framework_with(cfg, in.model.weights);
  GnnModel model = load_weights(in.model.weights);
  std::vector<GenOutcome> first;
  std::uint64_t ops = 0;
  const BodyTimes times = time_body(
      args, 2,
      [&](bool traced) {
        std::vector<GenOutcome> pass;
        for (const std::string& input : in.inputs) {
          const std::string out = macro_path(work.path(), input);
          pass.push_back(traced ? generate_traced(cfg, model, input, out)
                                : generate_plain(fw, input, out));
        }
        ops += pass.size();
        if (first.empty()) {
          first = std::move(pass);
          return;
        }
        for (std::size_t i = 0; i < pass.size(); ++i)
          if (const std::string d = diff_generate(first[i], pass[i]); !d.empty())
            r.fail(std::string(traced ? "traced" : "repeated") +
                   " generation differs: " + d);
      });
  r.attempted = ops;
  EndToEnd e;
  e.peak_rss_mb = peak_rss_mb();

  // The outputs of the timed passes are checked; the quality metrics
  // use the fixed reference set.
  std::vector<std::string> macros;
  for (const std::string& input : in.inputs)
    macros.push_back(macro_path(work.path(), input));
  check_models(first, in.inputs, macros, r);
  const Reference ref = reference_models(in.model.weights, work.path());
  e.quality = check_models(ref.models, ref.inputs, ref.macros, r);
  // The largest input: the parallel STA path on a flat graph.
  const std::string largest = *std::max_element(
      in.inputs.begin(), in.inputs.end(), [](const auto& a, const auto& b) {
        return std::filesystem::file_size(a) < std::filesystem::file_size(b);
      });
  const double flat_ns = sta_ns_per_node(build_timing_graph(load_input(largest)),
                                         2, true);

  e.setup_s = median(setups);
  e.wall_s = times.wall_s;
  e.cpu_s = times.cpu_s;
  e.cpu_rel = times.cpu_rel;
  e.gnn_f1 = in.model.report.train_confusion.f1();
  if (args.trace)
    add_per_layer(r, ServeSummary{}, flat_ns, times.trace_overhead_ratio);
  else
    add_end_to_end(r, e);
  double pins = 0.0, model_pins = 0.0;
  for (const GenOutcome& g : first) {
    pins += static_cast<double>(g.design_pins);
    model_pins += static_cast<double>(g.model_pins);
  }
  r.note("generate.inputs", static_cast<double>(first.size()), "count");
  r.note("generate.design_pins", pins, "count");
  r.note("generate.model_pins", model_pins, "count");
  return r;
}

}  // namespace pb
