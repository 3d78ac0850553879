#pragma once
// Static timing analysis engine over a TimingGraph.
//
// Forward pass: slews and arrival times (early/late x rise/fall) in
// topological order, seeded from the boundary constraints; worst-path
// predecessors are recorded for CPPR path recovery. Backward pass:
// required arrival times seeded from PO constraints and setup/hold
// checks at flip-flop data pins (with the common-path pessimism credit
// folded in when CPPR mode is on), relaxed in reverse topological order.
// Required times never enter the clock network: with an ideal clock
// port, internal register-to-register endpoints would otherwise
// constrain the clock PI, which interface-logic models intentionally
// drop (the TAU evaluation convention, EXPERIMENTS.md deviation 1).
//
// The same engine analyzes flat designs, ILMs and macro models, which is
// what makes macro accuracy evaluation (Fig. 2) a pure snapshot diff.
//
// Timing state lives in a structure-of-arrays store (sta/timing_store.hpp).
// Every full pass walks the cached CSR level schedule (sta/topology.hpp)
// one topological level at a time: with one thread (the default) the
// levels run inline on the caller, with more (Options::threads) each
// level's nodes are relaxed concurrently over a worker pool with a
// barrier between levels. Because every relaxation is gather-form over
// finalized fanin (resp. fanout) values and visits arcs in ascending
// arc-id order, results are bit-identical at any thread count — no
// reduction-order tie-break exists to document away
// (docs/PERFORMANCE.md).

#include <limits>
#include <span>
#include <vector>

#include "sta/aocv.hpp"
#include "sta/constraints.hpp"
#include "sta/timing_graph.hpp"
#include "sta/timing_store.hpp"
#include "sta/topology.hpp"

namespace tmm {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct PinTiming {
  ElRf<double> slew;
  ElRf<double> at;
  ElRf<double> rat;
};

/// Boundary timing values of one analysis run: slew/at/rat/slack at
/// every PI and PO, flattened per (port, el, rf).
struct BoundarySnapshot {
  std::size_t num_ports = 0;
  std::vector<double> slew, at, rat, slack;  // size num_ports * kNumEl*kNumRf
};

struct SnapshotDiff {
  double max_abs = 0.0;  ///< max |a-b| over finite entries (ps)
  double avg_abs = 0.0;  ///< mean |a-b| over finite entries (ps)
  double avg_rel = 0.0;  ///< mean |a-b| / max(|b|, eps) (Eq. 2 flavour)
  std::size_t compared = 0;
  /// Entries finite in exactly one snapshot (structural mismatch).
  std::size_t mismatched = 0;
};

/// Compare two snapshots (same port arity required).
SnapshotDiff diff_snapshots(const BoundarySnapshot& a,
                            const BoundarySnapshot& b);

/// Work accounting of one Sta::run_incremental call (all counts are
/// nodes unless noted); exposed for obs counters and tests.
struct StaIncrementalStats {
  std::size_t seeds = 0;           ///< dirty nodes handed in
  std::size_t fwd_recomputed = 0;  ///< nodes re-relaxed forward
  std::size_t fwd_changed = 0;     ///< ... whose slew/at actually changed
  std::size_t bwd_recomputed = 0;  ///< nodes re-relaxed backward
  std::size_t bwd_changed = 0;     ///< ... whose rat actually changed
  std::size_t checks_dirty = 0;    ///< check seeds re-evaluated
};

class Sta {
 public:
  struct Options {
    bool cppr = true;  ///< apply common-path pessimism removal
    /// Advanced on-chip-variation mode: depth-based derating of cell
    /// arc delays (see sta/aocv.hpp).
    AocvConfig aocv;
    /// Threads for the full forward/backward passes of run(): 1 =
    /// inline on the caller (default), 0 = auto (TMM_THREADS when set,
    /// else hardware concurrency), N = at most N. Results are
    /// bit-identical at every thread count; run_incremental is always
    /// single-threaded (its worklist is tiny by construction).
    std::size_t threads = 1;
    /// Graphs with fewer nodes than this always run on one thread — pool
    /// dispatch costs more than it buys on macro-sized graphs (the
    /// serve::Evaluator scratch engines rely on this fallback).
    std::size_t parallel_min_nodes = 2048;
  };

  explicit Sta(const TimingGraph& graph, Options opt);
  explicit Sta(const TimingGraph& graph) : Sta(graph, Options{}) {}

  /// Run a full forward + backward analysis under the constraints.
  /// Afterwards the boundary is scanned for NaN, and a NaN raises
  /// fault::FlowError(kNumeric) with the offending pin instead of letting
  /// corruption (a poisoned LUT, a bad derate) leak into labels or macro
  /// models silently. O(ports) per run.
  void run(const BoundaryConstraints& bc);

  /// Checkpoint the current analysis state (values, predecessors, CPPR
  /// credits) as the reference that run_incremental restores to and
  /// converges against. Call after a full run(); the level order of the
  /// cached CSR schedule is captured as the worklist priority, so the
  /// graph must only be mutated through the delta_* API afterwards.
  void set_reference();

  /// Incremental re-analysis after a graph delta, under the SAME
  /// constraints the reference was built with. `dirty` must contain
  /// every node whose fanin or fanout arc set the delta changed
  /// (dead nodes are fine and skipped). State is first restored to the
  /// reference over the previously dirty region only, then a worklist
  /// re-relaxes forward from the seeds in topological order with early
  /// termination where slew/at converge back to the reference, then the
  /// affected checks are re-seeded and the fan-in cone re-relaxed
  /// backward. Results are bit-identical to a from-scratch run() on the
  /// mutated graph, NaN scan included.
  StaIncrementalStats run_incremental(const BoundaryConstraints& bc,
                                      std::span<const NodeId> dirty);

  /// Timing values of one node, gathered from the SoA store (by value;
  /// binding the result to a const reference at call sites is fine —
  /// lifetime extension applies).
  PinTiming timing(NodeId n) const {
    PinTiming t;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        const std::size_t k = TimingStore::index(n, el, rf);
        t.slew(el, rf) = store_.slew.at(k);
        t.at(el, rf) = store_.at.at(k);
        t.rat(el, rf) = store_.rat.at(k);
      }
    return t;
  }

  /// slack: late = rat - at, early = at - rat; +inf when unconstrained.
  double slack(NodeId n, unsigned el, unsigned rf) const;

  /// Worst (minimum) slack over all check endpoints and (optionally)
  /// primary outputs.
  double worst_slack(unsigned el, bool include_pos = true) const;

  BoundarySnapshot boundary_snapshot() const;

  /// Allocation-free variant: fill `out` in place, reusing its storage.
  /// Snapshotting is a per-run cost in the incremental TS loop.
  void snapshot_into(BoundarySnapshot& out) const;

  /// CPPR credit applied at a data endpoint during the last run (0 when
  /// CPPR off or no common path); exposed for tests.
  double endpoint_credit(NodeId data, unsigned el, unsigned rf) const;

  /// One hop of a recovered worst path.
  struct PathStep {
    NodeId node = kInvalidId;
    ArcId via = kInvalidId;  ///< arc into `node`; kInvalidId at the start
    unsigned rf = kRise;     ///< transition at `node`
    double at = 0.0;         ///< arrival at `node` in the chosen corner
  };

  /// Recover the worst arrival path ending at (endpoint, el, rf) by
  /// walking the recorded predecessors back to its timing start point
  /// (a PI seed or a flop launch). Returns start-to-end order; empty if
  /// the endpoint was never reached.
  std::vector<PathStep> worst_path(NodeId endpoint, unsigned el,
                                   unsigned rf) const;

  /// The check endpoint with the worst slack in the corner, or
  /// kInvalidId if there are no constrained endpoints. `rf_out` receives
  /// the critical transition.
  NodeId worst_endpoint(unsigned el, unsigned* rf_out = nullptr) const;

  const TimingGraph& graph() const noexcept { return *graph_; }

 private:
  struct Pred {
    ArcId arc = kInvalidId;
    std::uint8_t from_rf = 0;
  };

  /// The full passes of run(): gather-form relaxations over the cached
  /// CSR level schedule, `par` threads per level (1 = inline on the
  /// caller, never touching the shared pool; results do not depend on
  /// `par`). seed_backward applies PO constraints and check seeds.
  void forward(const BoundaryConstraints& bc, std::size_t par);
  void seed_backward(const BoundaryConstraints& bc, std::size_t par);
  void backward(std::size_t par);
  /// Boundary NaN scan after every analysis; throws FlowError.
  void check_boundary_nan() const;
  /// Threads the full passes of this run() should use: Options::threads
  /// resolved against TMM_THREADS / hardware and the tiny-graph floor.
  std::size_t resolve_parallelism() const;
  /// Rebuild the cached CSR + level schedule when the graph structure
  /// changed (keyed on TimingGraph::structure_version()).
  void ensure_topology();
  /// Recompute slew/at/preds of `v` from scratch as a pure function of
  /// its PI seed and fanin arcs (gather form). Fanin arcs are visited in
  /// ascending arc-id order, so tie-breaks do not depend on which
  /// topological order drives the sweep — the property that makes
  /// incremental re-relaxation (and level-parallel execution)
  /// bit-identical to a full run. The span overload is the one
  /// implementation; the full passes hand it the CSR view, and
  /// run_incremental the graph's adjacency (same content, same order),
  /// because a delta leaves the CSR stale mid-analysis.
  void relax_forward_node(NodeId v, const BoundaryConstraints& bc,
                          std::span<const ArcId> fanin);
  void relax_forward_node(NodeId v, const BoundaryConstraints& bc) {
    relax_forward_node(v, bc, graph_->fanin(v));
  }
  /// Relax u's rat from its (final) fanout targets.
  void relax_backward_arcs(NodeId u, std::span<const ArcId> fanout);
  void relax_backward_arcs(NodeId u) {
    relax_backward_arcs(u, graph_->fanout(u));
  }
  /// Recompute u's rat from scratch: init, PO seed, check seeds at u,
  /// then fanout relaxation (gather form of seed_backward + backward).
  void relax_backward_node(NodeId u, const BoundaryConstraints& bc);
  /// Seed the check's rat/credit contribution at its data pin.
  void apply_check_seed(const CheckArc& c, const BoundaryConstraints& bc);
  /// True if the check's seed could differ from the reference: its data
  /// or clock pin, or any node on the CPPR launch/capture pred chains,
  /// changed value or predecessor this run.
  bool check_dirty(const CheckArc& c) const;
  bool clock_chain_dirty(NodeId ck, unsigned el) const;
  void restore_reference();
  void mark_modified(NodeId v);
  void mark_changed(NodeId v);
  NodeId trace_launch_clock(NodeId data, unsigned el, unsigned rf) const;
  double cppr_credit(NodeId launch_ck, NodeId capture_ck) const;

  const TimingGraph* graph_;
  Options opt_;
  TimingStore store_;        ///< SoA slew/at/rat, [node*kLanes + lane]
  std::vector<Pred> preds_;  ///< [node * kNumEl*kNumRf + el*kNumRf + rf]
  std::vector<double> eff_load_;
  std::vector<double> credits_;  ///< endpoint credits, same indexing as preds_

  // CSR adjacency + level schedule for the full passes, cached against
  // the graph's structure version (see ensure_topology).
  StaTopology topo_;
  bool topo_valid_ = false;

  // --- incremental state (see set_reference / run_incremental) --------
  bool has_reference_ = false;
  TimingStore ref_store_;
  std::vector<Pred> ref_preds_;
  std::vector<double> ref_credits_;
  std::vector<std::uint32_t> topo_pos_;  ///< node -> level-order position
  std::vector<NodeId> modified_;  ///< entries diverged from the reference
  std::vector<char> is_modified_;
  std::vector<NodeId> changed_;  ///< value or pred differs this run (F')
  std::vector<char> is_changed_;
  std::vector<char> value_changed_;  ///< subset of F': slew/at differs
  std::vector<std::uint32_t> fwd_stamp_, bwd_stamp_;  ///< worklist dedup
  std::uint32_t incr_gen_ = 0;
};

/// Slew-only forward propagation used by the insensitive-pin filter and
/// the iTimerM-style baseline: every PI gets the same input slew, POs
/// get `po_load_ff`; returns the worst (late, max-over-rf) slew per node
/// (-inf for unreached nodes).
std::vector<double> propagate_slew_only(const TimingGraph& graph,
                                        double pi_slew_ps,
                                        double po_load_ff = 4.0);

}  // namespace tmm
