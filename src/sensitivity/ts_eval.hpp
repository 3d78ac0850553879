#pragma once
// Timing sensitivity evaluation (Section 4.1, Fig. 5, Eq. 1-2).
//
// For each candidate pin A of an ILM graph: remove A (splice in the
// re-characterized composite arcs the macro generator would use),
// re-run timing under each of several random boundary-constraint sets,
// and average the relative change of boundary slew / arrival / required
// arrival / slack. TS == 0 means merging A is timing-free; TS > 0
// quantifies how much accuracy merging A costs.
// Each worker removes pins from its own copy of the ILM (MergeDelta
// apply/undo) and re-times the dirty cone (Sta::run_incremental), bit-
// identical to a graph copy + full merge + full Sta per pin.

#include <span>

#include "macro/merge.hpp"
#include "sta/constraints.hpp"

namespace tmm {

struct TsConfig {
  /// Number of random boundary-constraint sets (the |C| of Eq. 1).
  std::size_t num_constraint_sets = 3;
  ConstraintGenConfig constraint_gen;
  /// Rules of the per-pin removal, as macro generation applies them.
  /// `merge.aocv` is also the advanced timing mode under which
  /// sensitivities are evaluated (the framework's generality lever: TS
  /// adapts to the given delay model), so the STA derates and the
  /// derates baked into merged arcs are one setting.
  MergeConfig merge;
  bool cppr = true;
  std::uint64_t seed = 0x7153;
  /// Worker slots for the per-pin evaluation loop, run on the shared
  /// util::TaskPool (pins are independent; results are deterministic
  /// regardless of the count). 0 = auto: TMM_THREADS when set, else the
  /// hardware concurrency (util::TaskPool::default_threads()); a larger
  /// request gets the pool's size, as for STA and GNN training. Each
  /// slot's scratch STA engines are serial — parallelism here is across
  /// pins.
  std::size_t threads = 1;
};

struct TsResult {
  /// TS per node (Eq. 1); exactly 0 for pins not evaluated.
  std::vector<double> ts;
  std::size_t evaluated_pins = 0;
  std::size_t skipped_unmergeable = 0;
  /// Degradation accounting (docs/ROBUSTNESS.md): pins whose per-pin
  /// re-analysis failed are conservatively scored fully sensitive
  /// (TS = 1, i.e. kept in the model) instead of aborting the design;
  /// constraint sets whose reference run failed are dropped from the
  /// |C| average. Either being nonzero marks the design `degraded`.
  std::size_t failed_pins = 0;
  std::size_t skipped_sets = 0;
  /// First failure diagnostic (empty when failed_pins + skipped_sets == 0).
  std::string first_failure;
};

/// Evaluate TS for every node with candidates[n] == true. Pins that are
/// not legally mergeable are skipped (they are kept regardless, so their
/// sensitivity never matters). `ilm` must not contain owned tables yet
/// (i.e. be a fresh ILM), because each worker slot copies it. Throws
/// fault::FlowError (kConfig) when `ilm` has parallel duplicate delay
/// arcs (see MergeDelta).
TsResult evaluate_timing_sensitivity(const TimingGraph& ilm,
                                     const std::vector<bool>& candidates,
                                     const TsConfig& cfg);

/// Eq. 2 aggregation helper: mean relative difference of one boundary
/// quantity between two snapshots (exposed for tests).
double mean_relative_diff(std::span<const double> after,
                          std::span<const double> before);

}  // namespace tmm
