// `train`: `tmm train` on the six-design training suite — load the
// .dsn files, Framework::train (filter, TS loop, GNN training), write
// the model. GNN training dominates it; it is the only workload whose
// timed body runs the TS loop.

#include <filesystem>

#include "workloads.hpp"

namespace pb {

using namespace tmm;

namespace {

/// Set-ups per run; setup_s is their median (one takes about 15 ms).
constexpr int kSetups = 40;

/// The training designs, seeded.
std::vector<std::string> set_up(std::uint64_t seed, const std::string& dir) {
  return write_suite(
      seeded(training_suite(library(), kTrainScale), mix(seed, 0x7a0)), dir);
}

}  // namespace

Report run_train(const Args& args) {
  Report r;
  WorkDir work("train");

  std::vector<double> setups;
  std::vector<std::string> in;
  std::uint64_t used = 0;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    in = set_up(args.seed, work.path());
    setups.push_back(now_s() - t0);
    if (i == 0) used = hash_files(in);
  }
  const std::string next_dir = work.file("next");
  std::filesystem::create_directories(next_dir);
  check_seeded_inputs(used, hash_files(in),
                      hash_files(set_up(args.seed + 1, next_dir)), r);

  const FlowConfig cfg = offline_config();
  TrainOutcome first;
  bool have_first = false;
  std::uint64_t ops = 0;
  const BodyTimes times = time_body(
      args, 2,
      [&](bool traced) {
        TrainOutcome t =
            traced ? train_traced(cfg, in) : train_plain(cfg, in);
        ops += in.size();
        if (t.failed > 0 || t.degraded > 0)
          r.fail("training had failed or degraded designs",
                 t.failed + t.degraded);
        if (!have_first) {
          first = std::move(t);
          have_first = true;
        } else if (const std::string d = diff_train(first, t); !d.empty()) {
          r.fail(std::string(traced ? "traced" : "repeated") +
                 " training differs: " + d);
        }
      });
  r.attempted = ops;
  EndToEnd e;
  e.peak_rss_mb = peak_rss_mb();

  // The trained model, applied to the reference designs: the macros'
  // accuracy and size.
  const Reference ref = reference_models(first.weights, work.path());
  e.quality = check_models(ref.models, ref.inputs, ref.macros, r);
  const double flat_ns = sta_ns_per_node(
      build_timing_graph(load_input(ref.inputs.back())), 2, true);

  e.setup_s = median(setups);
  e.wall_s = times.wall_s;
  e.cpu_s = times.cpu_s;
  e.cpu_rel = times.cpu_rel;
  e.gnn_f1 = first.report.train_confusion.f1();
  if (args.trace)
    add_per_layer(r, ServeSummary{}, flat_ns, times.trace_overhead_ratio);
  else
    add_end_to_end(r, e);
  r.note("train.epochs_run", static_cast<double>(first.report.epochs_run), "count");
  r.note("train.labeled_pins", static_cast<double>(first.labeled_pins), "count");
  r.note("train.positives", static_cast<double>(first.positives), "count");
  return r;
}

}  // namespace pb
