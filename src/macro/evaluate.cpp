#include "macro/evaluate.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/instrument.hpp"

namespace tmm {

namespace {

// Metric handle resolved at namespace scope (the registry is a leaked
// function-local static, so this is static-init safe).
obs::Counter& g_evals = obs::counter("evaluate.runs");

}  // namespace

AccuracyReport evaluate_accuracy(const TimingGraph& reference,
                                 const TimingGraph& model,
                                 std::span<const BoundaryConstraints> sets,
                                 const Sta::Options& options) {
  obs::Span span("macro.evaluate");
  AccuracyReport report;
  Sta ref_sta(reference, options);
  Sta model_sta(model, options);
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& bc : sets) {
    ref_sta.run(bc);
    const BoundarySnapshot ref_snap = ref_sta.boundary_snapshot();
    Stopwatch usage;
    model_sta.run(bc);
    const BoundarySnapshot model_snap = model_sta.boundary_snapshot();
    report.usage_seconds += usage.seconds();
    const SnapshotDiff d = diff_snapshots(model_snap, ref_snap);
    report.max_err_ps = std::max(report.max_err_ps, d.max_abs);
    sum += d.avg_abs * static_cast<double>(d.compared);
    count += d.compared;
    report.structural_mismatches += d.mismatched;
    ++report.constraint_sets;
  }
  report.compared_values = count;
  if (count > 0) report.avg_err_ps = sum / static_cast<double>(count);
  g_evals.add();
  obs::gauge("evaluate.max_err_ps").set(report.max_err_ps);
  span.set_arg("max_err_ps", report.max_err_ps);
  return report;
}

}  // namespace tmm
