#include "macro/evaluate.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/instrument.hpp"
#include "util/task_pool.hpp"

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
  // Each thread takes a contiguous range of sets with one engine pair,
  // so each builds its topology once. The graphs' adjacency and
  // topological-order caches are lazy and unsynchronized: materialize
  // them here, before two engines could race to build them.
  reference.topo_order();
  model.topo_order();
  const std::size_t threads = std::min<std::size_t>(
      options.threads == 0 ? util::TaskPool::default_threads()
                           : options.threads,
      std::max<std::size_t>(1, sets.size()));
  const std::size_t per_range = (sets.size() + threads - 1) / threads;
  // With more than one range the ranges are the parallelism: the
  // engines inside run their levels inline on their pool thread.
  Sta::Options range_opt = options;
  if (threads > 1) range_opt.threads = 1;
  struct SetResult {
    SnapshotDiff diff;
    double usage_seconds = 0.0;
  };
  std::vector<SetResult> results(sets.size());
  util::parallel_chunks(
      sets.size(), per_range, threads, [&](std::size_t begin, std::size_t end) {
        Sta ref_sta(reference, range_opt);
        Sta model_sta(model, range_opt);
        for (std::size_t k = begin; k < end; ++k) {
          ref_sta.run(sets[k]);
          const BoundarySnapshot ref_snap = ref_sta.boundary_snapshot();
          Stopwatch usage;
          model_sta.run(sets[k]);
          const BoundarySnapshot model_snap = model_sta.boundary_snapshot();
          results[k].usage_seconds = usage.seconds();
          results[k].diff = diff_snapshots(model_snap, ref_snap);
        }
      });

  // The reduction runs in set order, as a serial loop would add.
  AccuracyReport report;
  double sum = 0.0;
  std::size_t count = 0;
  for (const SetResult& r : results) {
    const SnapshotDiff& d = r.diff;
    report.usage_seconds += r.usage_seconds;
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
