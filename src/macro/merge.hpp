#pragma once
// Serial and parallel merging (Fig. 9): remove pins predicted timing-
// insensitive from an ILM graph, splicing in re-characterized composite
// arcs, then collapse parallel duplicate arcs into worst-case envelopes.
//
// This module owns the graph surgery only: which pins may go, which
// arcs are spliced in and killed, which duplicates fold, and in which
// order ids are allocated. The tables of every arc it creates come from
// macro/compose.hpp (compose_chain for serial chains, compose_parallel
// for envelopes). The full merge and MergeDelta share one copy of each
// rule and step (merge verdict, splice, chain materialization, fold).
//
// Merging a pin is refused (the pin is kept regardless of prediction)
// when removal could change boundary timing structurally:
//   - boundary ports, flip-flop data/clock pins, check endpoints;
//   - pins electrically tied to a primary-output net (their downstream
//     load is a boundary constraint, not a constant — the paper's
//     "pins connected to some output net are also remained");
//   - pins with more than one fanin: the analysis engine merges the
//     worst slew over fanins at such pins, and per-path composition
//     cannot reproduce that coupling, so removal would not be
//     timing-safe (single-fanin pins compose exactly);
//   - high-fanout pins whose removal would blow up the arc count, or
//     whose spliced chain arcs would store more than the arcs they
//     replace.

#include <unordered_map>
#include <vector>

#include "macro/compose.hpp"
#include "sta/aocv.hpp"
#include "sta/timing_graph.hpp"

namespace tmm {

struct MergeConfig {
  IndexSelectionConfig index;
  /// Refuse to merge a pin when fanin * fanout exceeds this.
  std::size_t max_fan_product = 8;
  /// Only merge pins with a single fanin (slew-exact composition);
  /// disabling this trades accuracy for size (exposed for ablation).
  bool single_fanin_only = true;
  /// Timing mode the model is generated for: when AOCV is enabled, the
  /// per-stage depth derates are baked into the re-characterized
  /// tables (merged arcs are marked `baked_derate`, so the analysis
  /// engine never derates them twice).
  AocvConfig aocv;
};

struct MergeStats {
  std::size_t pins_removed = 0;
  std::size_t serial_arcs_created = 0;
  std::size_t parallel_arcs_merged = 0;
  std::size_t refused = 0;  ///< predicted-removable pins kept for safety
};

/// True if the node may legally be merged away (every merge rule but the
/// storage gate, which depends on the chains of an ongoing merge).
bool mergeable(const TimingGraph& g, NodeId n, const MergeConfig& cfg);

/// Remove every node with keep[n] == false that is legally mergeable.
/// `keep` is indexed by node id of `g`. The merged arcs' tables are
/// composed on up to `threads` threads of the shared pool (0 = the
/// whole pool); the graph and the index.* metrics are the same at any
/// thread count.
MergeStats merge_insensitive_pins(TimingGraph& g, const std::vector<bool>& keep,
                                  const MergeConfig& cfg = {},
                                  std::size_t threads = 1);

/// Collapse parallel duplicate delay arcs (same from/to) into envelopes.
std::size_t merge_parallel_arcs(TimingGraph& g, const MergeConfig& cfg = {});

/// True if the live graph has two non-launch delay arcs with the same
/// (from, to, sense) key — i.e. merge_parallel_arcs would fold
/// something even before any pin is removed. MergeDelta rejects such a
/// graph (see below).
bool has_parallel_duplicate_arcs(const TimingGraph& g);

/// Single-pin merge with undo, for the what-if loop of timing-
/// sensitivity evaluation: removes one pin in place via the graph's
/// delta_* mutators — replicating merge_insensitive_pins({pin}) arc for
/// arc through the same merge verdict, splice, chain materialization
/// and parallel-duplicate fold — and restores the graph byte-
/// equivalently afterwards, keeping the cached adjacency and
/// topological order valid throughout. One MergeDelta per scratch graph
/// amortizes the pristine duplicate-key index across pins.
class MergeDelta {
 public:
  /// Throws std::invalid_argument when the pristine graph already has
  /// parallel duplicate arcs: a full merge would fold those
  /// independently of the removed pin, so no single-pin delta could
  /// match it. No design builds such a graph.
  explicit MergeDelta(TimingGraph& g);

  /// Remove `pin`. Returns false (graph untouched) when the pin is
  /// refused by the merge legality/size rules. Must not be called while
  /// a delta is applied.
  bool apply(NodeId pin, const MergeConfig& cfg);

  /// Restore the graph to its pre-apply state (no-op when nothing is
  /// applied).
  void undo();

  bool applied() const noexcept { return applied_; }

  /// Nodes whose fanin or fanout arc set the last apply() changed (the
  /// removed pin plus its former neighbors); empty when refused. Feed
  /// this to Sta::run_incremental.
  const std::vector<NodeId>& touched() const noexcept { return touched_; }

 private:
  TimingGraph* g_;
  /// (from, to, sense) key -> the unique live pristine non-launch arc.
  std::unordered_map<std::uint64_t, ArcId> pristine_keys_;
  NodeId pin_ = kInvalidId;
  bool applied_ = false;
  std::size_t base_arcs_ = 0;
  std::size_t base_tables_ = 0;
  std::vector<ArcId> killed_;  ///< pre-existing arcs killed by the delta
  std::vector<NodeId> touched_;
};

}  // namespace tmm
