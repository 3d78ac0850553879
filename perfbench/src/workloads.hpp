#pragma once
// The three workloads and the pieces they share. Every workload reports
// the same end-to-end metrics (its own timed body plus the quality
// figures of the models it produces or serves) and, traced, the same
// per-layer metrics, taken from the median traced body repetition.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "pipeline.hpp"
#include "spans.hpp"

namespace pb {

Report run_train(const Args& args);
Report run_generate(const Args& args);
Report run_serve(const Args& args);

/// Design scales (TAU pin count divided by the scale, see design_gen).
inline constexpr std::size_t kTrainScale = 20;        ///< train workload
inline constexpr std::size_t kGenerateScale = 1000;   ///< generate inputs
inline constexpr std::size_t kServeScale = 100;       ///< served designs
inline constexpr std::size_t kServedDesigns = 5;
/// Accuracy check of every generated model: its max boundary error
/// stays within kMaxErrLimitPs (the paper's models stay below 0.1 ps),
/// or, on a design where the iTimerM-like baseline (Framework::
/// run_itimerm) errs as much, within kBaselineSlackPs of that baseline.
inline constexpr double kMaxErrLimitPs = 1.0;
inline constexpr double kBaselineSlackPs = 0.1;

/// Generates the suite's designs and writes them as .dsn files.
std::vector<std::string> write_suite(const std::vector<tmm::SuiteEntry>& suite,
                                     const std::string& dir);

/// load_design_any with the benchmark's library.
tmm::Design load_input(const std::string& path);

/// The model trained during generate/serve set-up: `tmm train` on the
/// six training designs at kTrainScale with their suite seeds, so every
/// benchmark seed uses the same model.
TrainOutcome setup_model(const std::string& dir, Report& report);

/// Turns each input into a .macro in `dir` with the given model.
std::vector<GenOutcome> generate_all(const std::string& weights,
                                     const std::vector<std::string>& inputs,
                                     const std::string& dir);

/// The paper's size and accuracy columns over a set of models: total
/// size, the largest of the models' max boundary errors and the mean of
/// their average boundary errors.
struct Quality {
  double model_bytes = 0.0;
  double max_err_ps = 0.0;
  double avg_err_ps = 0.0;
};
/// Aggregates the accuracy of the models generated from `inputs` and
/// checks it: no structural mismatch, the max-error limit above, and
/// each file reads back through read_macro_model to the same size.
Quality check_models(const std::vector<GenOutcome>& models,
                     const std::vector<std::string>& inputs,
                     const std::vector<std::string>& macro_paths,
                     Report& report);

/// The fixed reference set the quality metrics of train and generate
/// use: the 11 testing designs at kGenerateScale with their suite seeds,
/// turned into macros (in `dir`/ref) by the given model. It does not
/// change with the benchmark seed, so quality figures compare like with
/// like; the timed inputs do change.
struct Reference {
  std::vector<std::string> inputs, macros;
  std::vector<GenOutcome> models;
};
Reference reference_models(const std::string& weights, const std::string& dir);

struct ServeSummary {
  double p50_us = 0.0, p99_us = 0.0;
  double slo_qps = 0.0;
  std::vector<double> chunk_p99_us;  ///< per 1000 reference requests
  double peak_rss_mb = 0.0;          ///< right after the window
  double qps_per_core = 0.0;  ///< burst requests per process CPU second
  double burst_s = 0.0;         ///< median wall time of one burst
  double burst_cpu_s = 0.0;     ///< median process CPU time of one burst
  double burst_cpu_rel = 0.0;   ///< the same over the calibration around it
  double traced_burst_s = 0.0;  ///< same with spans (traced runs)
  double pack_s = 0.0, registry_load_s = 0.0;
  double rtt_hit_us = 0.0, rtt_miss_us = 0.0;
  double hit_ratio = 0.0;
  double evictions = 0.0, requests_per_batch = 0.0;
  double shed = 0.0, conn_aborts = 0.0;
  double gen_late_ms = 0.0;
  ServeHarness::Probe probe;
  std::uint64_t attempted = 0, failed = 0;
};

/// Packs the models to .tmb, starts serving them and warms the hot set
/// (fills s.pack_s and s.registry_load_s).
std::unique_ptr<ServeHarness> start_serving(
    const std::vector<std::string>& macro_paths, const std::string& dir,
    std::uint64_t seed, const ServeParams& params, ServeSummary& s);
/// The timed window of `window_s` seconds: the reference-rate phase for
/// half of it, closed bursts (at least kMinBursts; traced: each followed
/// by a traced one) until most of it has passed, and one SLO ladder
/// search. Then every response is verified and the layers are probed
/// in-process.
inline constexpr int kMinBursts = 5;
void measure_serving(ServeHarness& h, double window_s, bool traced_bursts,
                     ServeSummary& s);

struct EndToEnd {
  double setup_s = 0.0, wall_s = 0.0, cpu_s = 0.0, cpu_rel = 0.0;
  double peak_rss_mb = 0.0;
  double gnn_f1 = 0.0;
  Quality quality;
};
/// The gated metrics, plus the serving figures (printed, not gated) when
/// `serve` is given.
void add_end_to_end(Report& report, const EndToEnd& e,
                    const ServeSummary* serve = nullptr);

/// Every per-layer metric: the module spans and counts of the median
/// traced body repetition, and the serving summary (serve only; empty
/// otherwise). A layer the workload does not run reads 0.
void add_per_layer(Report& report, const ServeSummary& serve,
                   double flat_ns_per_node, double trace_overhead_ratio);

/// FNV-1a over the contents of the files.
std::uint64_t hash_files(const std::vector<std::string>& paths);

/// Fails the report unless the inputs the run used (`used`) are the
/// ones its seed draws again (`again`) and the next seed draws
/// different ones (`next`).
void check_seeded_inputs(std::uint64_t used, std::uint64_t again,
                         std::uint64_t next, Report& report);

struct BodyTimes {
  double wall_s = 0.0;   ///< median untraced repetition
  double cpu_s = 0.0;    ///< median process CPU time of one repetition
  double cpu_rel = 0.0;  ///< median CPU time over the calibration around it
  double trace_overhead_ratio = 0.0;  ///< traced over untraced wall
};

/// The run's phase loop for an offline body. Untraced: repeat `body`
/// until `seconds` pass (at least `min_reps` times). Traced: alternate
/// untraced and traced repetitions (at least one of each).
template <class Body>
BodyTimes time_body(const Args& args, int min_reps, Body&& body) {
  std::vector<double> plain, cpu, rel, traced;
  const double end = now_s() + args.seconds;
  for (int rep = 0;; ++rep) {
    trace::enable(false);
    const double k0 = calibration(3);
    const double c0 = process_cpu_s();
    double t0 = now_s();
    body(false);
    plain.push_back(now_s() - t0);
    cpu.push_back(process_cpu_s() - c0);
    rel.push_back(cpu.back() / (0.5 * (k0 + calibration(3))));
    if (args.trace) {
      trace::enable(true);
      trace::set_rep(rep);
      t0 = now_s();
      body(true);
      traced.push_back(now_s() - t0);
      trace::enable(false);
    }
    if (now_s() >= end && rep + 1 >= (args.trace ? 1 : min_reps)) break;
  }
  BodyTimes t;
  t.wall_s = median(plain);
  t.cpu_s = median(cpu);
  t.cpu_rel = median(rel);
  if (!traced.empty()) t.trace_overhead_ratio = median(traced) / t.wall_s;
  return t;
}

}  // namespace pb
