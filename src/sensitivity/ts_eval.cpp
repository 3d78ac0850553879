#include "sensitivity/ts_eval.hpp"

#include <atomic>
#include <cmath>
#include <optional>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sta/propagation.hpp"
#include "util/instrument.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/task_pool.hpp"

namespace tmm {

double mean_relative_diff(std::span<const double> after,
                          std::span<const double> before) {
  if (after.size() != before.size()) {
    log_warn("mean_relative_diff: size mismatch (%zu after vs %zu before); "
             "returning maximal penalty",
             after.size(), before.size());
    return 1.0;
  }
  const std::size_t n = after.size();
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool fa = std::isfinite(after[i]);
    const bool fb = std::isfinite(before[i]);
    if (!fa && !fb) continue;  // both unconstrained: no difference
    ++count;
    if (fa != fb) {
      sum += 1.0;  // structural change: maximal relative penalty
      continue;
    }
    sum += std::fabs(after[i] - before[i]) / std::max(std::fabs(before[i]), 1e-6);
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

namespace {

// Metric handles resolved once at namespace scope: the per-call
// registry name lookup and static-init guard were measurable in the
// per-pin hot loop (the registry is a leaked function-local static, so
// this is safe at static-initialization time).
obs::Counter& g_pins_evaluated = obs::counter("ts.pins_evaluated");
obs::Counter& g_repropagations = obs::counter("ts.repropagations");
obs::Counter& g_dirty_nodes = obs::counter("ts.dirty_nodes");
obs::Counter& g_incremental_frontier =
    obs::counter("ts.incremental_frontier");
obs::Counter& g_pins_failed = obs::counter("ts.pins_failed");
obs::Counter& g_sets_skipped = obs::counter("ts.sets_skipped");

/// Conservative TS for a pin whose re-analysis failed: maximal
/// sensitivity, so the pin is labeled timing-variant and kept in the
/// model — degrading model size, never accuracy.
constexpr double kFailedPinTs = 1.0;

double snapshot_ts(const BoundarySnapshot& after,
                   const BoundarySnapshot& before) {
  const double ds = mean_relative_diff(after.slew, before.slew);
  const double da = mean_relative_diff(after.at, before.at);
  const double dr = mean_relative_diff(after.rat, before.rat);
  const double dk = mean_relative_diff(after.slack, before.slack);
  return (ds + da + dr + dk) / 4.0;
}

/// One worker's incremental state: a private copy of the ILM mutated in
/// place through MergeDelta apply/undo, and one engine per constraint
/// set whose reference checkpoint the incremental runs restore to —
/// instead of a graph copy, a full merge and full propagations per pin.
struct Scratch {
  TimingGraph graph;
  MergeDelta delta;
  std::vector<Sta> engines;
  BoundarySnapshot snap;  // reused: snapshot_into is allocation-free
  Scratch(const TimingGraph& ilm, const Sta::Options& opt,
          const std::vector<BoundaryConstraints>& sets)
      : graph(ilm), delta(graph) {
    engines.reserve(sets.size());
    for (const auto& bc : sets) {
      engines.emplace_back(graph, opt);
      engines.back().run(bc);
      engines.back().set_reference();
    }
  }
};

}  // namespace

TsResult evaluate_timing_sensitivity(const TimingGraph& ilm,
                                     const std::vector<bool>& candidates,
                                     const TsConfig& cfg) {
  obs::Span span("sensitivity.ts");
  TsResult out;
  out.ts.assign(ilm.num_nodes(), 0.0);
  Stopwatch sw;

  // Every worker's MergeDelta would reject this graph, scoring each pin
  // failed; fail the design once, before any timing work, instead.
  if (has_parallel_duplicate_arcs(ilm))
    throw fault::FlowError(fault::ErrorCode::kConfig, "ts.eval",
                           "ILM has parallel duplicate delay arcs");

  // Random boundary-constraint sets and their reference snapshots.
  Rng rng(cfg.seed);
  std::vector<BoundaryConstraints> sets;
  std::vector<BoundarySnapshot> refs;
  Sta::Options sta_opt;  // serial: parallelism here is across pins
  sta_opt.cppr = cfg.cppr;
  sta_opt.aocv = cfg.merge.aocv;
  // Per-constraint-set isolation: a set whose reference run fails
  // (numeric corruption, injected fault) is dropped from the |C|
  // average with a diagnostic instead of killing the design. The RNG
  // draw happens for every set regardless, so the surviving constraint
  // sets are bit-identical to the ones an unfailed run would use.
  Sta ref_sta(ilm, sta_opt);
  for (std::size_t c = 0; c < cfg.num_constraint_sets; ++c) {
    BoundaryConstraints bc = random_constraints(ilm.primary_inputs().size(),
                                                ilm.primary_outputs().size(),
                                                cfg.constraint_gen, rng);
    try {
      fault::inject("ts.constraint_set");
      ref_sta.run(bc);
      refs.push_back(ref_sta.boundary_snapshot());
      sets.push_back(std::move(bc));
    } catch (const std::exception& e) {
      ++out.skipped_sets;
      g_sets_skipped.add();
      if (out.first_failure.empty()) out.first_failure = e.what();
      log_warn("ts-eval: constraint set %zu skipped: %s", c, e.what());
    }
  }
  if (sets.empty())
    throw fault::FlowError(fault::ErrorCode::kUnavailable, "ts.eval",
                           "every reference constraint set failed (" +
                               out.first_failure + ")");

  // Collect the evaluable pins, then fan the independent per-pin
  // re-analyses out over the shared pool (results are written to
  // disjoint slots, so the outcome is deterministic for any count).
  std::vector<NodeId> work;
  for (NodeId n = 0; n < ilm.num_nodes(); ++n) {
    if (n >= candidates.size() || !candidates[n]) continue;
    if (ilm.node(n).dead) continue;
    if (!mergeable(ilm, n, cfg.merge)) {
      ++out.skipped_unmergeable;
      continue;
    }
    work.push_back(n);
  }

  const std::size_t slots =
      std::min(cfg.threads == 0 ? util::TaskPool::default_threads()
                                : cfg.threads,
               std::max<std::size_t>(1, work.size()));
  std::atomic<std::size_t> next{0};

  // Progress heartbeat: the TS loop is the dominant stage-1 cost and
  // can run for minutes; report done/total + ETA at info level, rate-
  // limited so the log stays readable at any design size. The CAS on
  // the deadline elects exactly one reporting thread per interval.
  constexpr double kHeartbeatSeconds = 2.0;
  std::atomic<std::size_t> done{0};
  std::atomic<double> next_report{kHeartbeatSeconds};
  auto heartbeat = [&](std::size_t finished) {
    if (log_level() > LogLevel::kInfo) return;
    const double elapsed = sw.seconds();
    double deadline = next_report.load(std::memory_order_relaxed);
    if (elapsed < deadline) return;
    if (!next_report.compare_exchange_strong(deadline,
                                             elapsed + kHeartbeatSeconds,
                                             std::memory_order_relaxed))
      return;  // another worker reported this interval
    const double rate = static_cast<double>(finished) / elapsed;
    const double eta =
        rate > 0.0 ? static_cast<double>(work.size() - finished) / rate : 0.0;
    log_info("ts-eval: %zu/%zu pins (%.0f%%), %.1fs elapsed, eta %.1fs",
             finished, work.size(),
             100.0 * static_cast<double>(finished) /
                 static_cast<double>(std::max<std::size_t>(1, work.size())),
             elapsed, eta);
  };

  // Eq. 1 for one pin, bit-identical to removing it from a graph copy
  // with merge_insensitive_pins and re-running a full Sta per set.
  auto pin_ts = [&](Scratch& s, NodeId n) {
    // Refused by the merge legality/size rules: re-timing the unchanged
    // graph would diff two identical snapshots — TS is exactly 0.
    if (!s.delta.apply(n, cfg.merge)) return 0.0;
    g_dirty_nodes.add(s.delta.touched().size());
    double ts_sum = 0.0;
    for (std::size_t c = 0; c < sets.size(); ++c) {
      const StaIncrementalStats st =
          s.engines[c].run_incremental(sets[c], s.delta.touched());
      g_incremental_frontier.add(st.fwd_recomputed + st.bwd_recomputed);
      s.engines[c].snapshot_into(s.snap);
      ts_sum += snapshot_ts(s.snap, refs[c]);
    }
    s.delta.undo();
    g_repropagations.add(sets.size());
    return ts_sum / static_cast<double>(sets.size());
  };

  // Per-pin isolation: an exception inside one pin's re-analysis
  // (numeric guard, injected fault, a failed scratch build) marks that
  // pin failed — conservatively fully sensitive, so it stays in the
  // model — and the loop continues. No exception leaves a pool chunk.
  static const util::lockorder::LockClass kFailureLockClass(
      "ts.failure_record");
  util::Mutex failure_mu(kFailureLockClass);
  auto record_failure = [&](NodeId n, const char* what) {
    g_pins_failed.add();
    out.ts[n] = kFailedPinTs;
    util::MutexLock lock(failure_mu);
    ++out.failed_pins;
    if (out.first_failure.empty())
      out.first_failure =
          std::string("pin '") + ilm.node(n).name + "': " + what;
    log_warn("ts-eval: pin %s failed, conservatively kept (%s)",
             ilm.node(n).name.c_str(), what);
  };

  // One worker slot: claims pins until the work list is exhausted.
  auto worker = [&](std::size_t, std::size_t) {
    // Built on the slot's first pin and again after any failure, which
    // may have left it mid-delta.
    std::optional<Scratch> scratch;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= work.size()) return;
      const NodeId n = work[i];
      try {
        fault::inject("ts.eval_pin");
        if (!scratch) scratch.emplace(ilm, sta_opt, sets);
        out.ts[n] = pin_ts(*scratch, n);
      } catch (const std::exception& e) {
        scratch.reset();
        record_failure(n, e.what());
      }
      g_pins_evaluated.add();
      heartbeat(done.fetch_add(1, std::memory_order_relaxed) + 1);
    }
  };
  util::parallel_chunks(slots, 1, slots, worker);
  out.evaluated_pins = work.size();
  span.set_arg("pins", static_cast<double>(out.evaluated_pins));
  obs::trace_rss_sample();
  return out;
}

}  // namespace tmm
