#pragma once
// Timing graph: the shared representation flat designs, interface-logic
// models (ILMs) and generated macro models are analyzed on.
//
// Nodes are pins. Delay arcs are either cell arcs (NLDM tables shared
// with the library or owned by the graph after merging) or wire arcs
// (constant Elmore delay with PERI-style slew degradation). Setup/hold
// check arcs are kept separately; they constrain required arrival times
// at flip-flop data pins instead of propagating values.
//
// The graph is mutable (macro generation removes pins and splices in
// re-characterized arcs); removed nodes and arcs stay in place, flagged
// dead, and the lazily computed topological order is invalidated by any
// mutation.

#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "liberty/cell.hpp"
#include "netlist/design.hpp"
#include "util/types.hpp"

namespace tmm {

using NodeId = std::uint32_t;

enum class NodeRole : std::uint8_t { kInternal, kPrimaryInput, kPrimaryOutput };

struct GraphNode {
  std::string name;
  NodeRole role = NodeRole::kInternal;
  /// Ordinal among PIs (resp. POs) when role is a boundary role;
  /// boundary constraints are indexed by this ordinal.
  std::uint32_t port_ordinal = 0;
  bool is_clock_root = false;
  bool in_clock_network = false;
  bool is_ff_clock = false;  ///< CK pin of a flip-flop
  bool is_ff_data = false;   ///< D pin of a flip-flop (check endpoint)
  bool dead = false;         ///< removed by merging
  /// Stage depth (cell arcs traversed from the nearest launch point);
  /// drives AOCV depth-based derating.
  std::uint32_t aocv_depth = 0;
  /// Static capacitive load this node drives (wire + sink pins), fF.
  /// Only meaningful for nodes with load-dependent out-arcs.
  double static_load_ff = 0.0;
  /// PO ordinals electrically on this node's net: their boundary load
  /// constraint adds to static_load_ff at analysis time.
  std::vector<std::uint32_t> attached_po_loads;
};

enum class GraphArcKind : std::uint8_t { kCell, kWire };

struct GraphArc {
  NodeId from = 0;
  NodeId to = 0;
  GraphArcKind kind = GraphArcKind::kCell;
  ArcSense sense = ArcSense::kPositiveUnate;
  bool is_launch = false;  ///< FF clock-to-Q arc
  bool dead = false;
  /// True when AOCV derates are already folded into the tables
  /// (re-characterized merged arcs, ETM arcs, reloaded models); the
  /// engine must not derate such arcs again.
  bool baked_derate = false;
  /// True when all 16 tables share, bit for bit, the slew axis and the
  /// load axis of delay(0, 0), so the engine locates a coordinate once
  /// per arc instead of once per table. Derived from the tables by
  /// every TimingGraph mutator that sets them; false for wire arcs, for
  /// null tables and for arcs built outside a TimingGraph.
  bool one_grid = false;
  /// NLDM tables for cell arcs (null for wire arcs). Tables map
  /// (slew at `from`, load at `to`) -> delay / slew at `to`; 1-D tables
  /// ignore load (interior merged arcs with statically folded loads).
  const ElRf<Lut>* delay = nullptr;
  const ElRf<Lut>* out_slew = nullptr;
  /// Elmore wire delay for wire arcs (ps), identical early/late.
  double wire_delay_ps = 0.0;
};

struct CheckArc {
  NodeId clock = 0;  ///< CK pin
  NodeId data = 0;   ///< D pin
  bool is_setup = true;
  bool dead = false;
  /// Guard time table: (clock slew, data slew) -> guard (ps).
  const ElRf<Lut>* guard = nullptr;
};

class TimingGraph {
 public:
  NodeId add_node(GraphNode node);
  ArcId add_cell_arc(NodeId from, NodeId to, ArcSense sense,
                     const ElRf<Lut>* delay, const ElRf<Lut>* out_slew,
                     bool is_launch = false);
  ArcId add_wire_arc(NodeId from, NodeId to, double delay_ps);
  /// Point a cell arc at new tables (re-characterization), keeping
  /// GraphArc::one_grid in step. Structure and caches are untouched.
  void set_cell_tables(ArcId a, const ElRf<Lut>* delay,
                       const ElRf<Lut>* out_slew);
  std::uint32_t add_check(NodeId clock, NodeId data, bool is_setup,
                          const ElRf<Lut>* guard);

  /// Take ownership of re-characterized tables; the returned pointer is
  /// stable for the lifetime of the graph.
  const ElRf<Lut>* own_tables(ElRf<Lut> tables);

  /// True if `tables` points into this graph's owned storage (i.e. the
  /// surface was re-characterized rather than shared with a library).
  bool owns_tables(const ElRf<Lut>* tables) const noexcept;
  const std::deque<ElRf<Lut>>& owned_tables() const noexcept {
    return owned_tables_;
  }

  /// Mark a node and all incident arcs/checks dead.
  void kill_node(NodeId n);
  void kill_arc(ArcId a);

  // --- Delta mutation API (incremental re-analysis) -------------------
  //
  // The plain mutators above invalidate the cached adjacency and
  // topological order, which makes per-pin what-if analysis O(V+E) per
  // mutation just to rebuild caches. The delta_* mutators below patch
  // the caches in place instead, under a contract the caller (see
  // macro/merge.hpp MergeDelta) must uphold:
  //   - caches must be materialized first (call topo_order() once);
  //   - an added arc must connect live nodes u -> v that the graph
  //     already connects by a path (true for merge splices, whose
  //     endpoints were joined through the removed pin), so every
  //     topological order of the graph before the delta — the cached
  //     one and Sta's level order alike — stays valid after it;
  //   - a node marked dead via delta_set_node_dead stays in the cached
  //     topological order; consumers must skip dead nodes (Sta does).
  // Adjacency lists keep their ascending-arc-id order across kill /
  // restore / append, which is what makes re-relaxation order (and thus
  // floating-point results and tie-breaks) reproducible.

  /// Mark arc `a` dead and unlink it from the cached adjacency.
  void delta_kill_arc(ArcId a);
  /// Revive a delta-killed arc, re-linking it in ascending-id position.
  void delta_restore_arc(ArcId a);
  /// Append a cell arc without invalidating caches (see contract above).
  ArcId delta_add_cell_arc(NodeId from, NodeId to, ArcSense sense,
                           const ElRf<Lut>* delay, const ElRf<Lut>* out_slew,
                           bool is_launch = false);
  /// Flip a node's dead flag without touching arcs or caches.
  void delta_set_node_dead(NodeId n, bool dead);
  /// Drop every arc with id >= num_arcs and every owned table beyond
  /// num_tables (both appended during a delta), unlinking the dropped
  /// arcs from the cached adjacency. Pointers to surviving owned tables
  /// remain valid.
  void delta_truncate(std::size_t num_arcs, std::size_t num_tables);
  std::size_t num_owned_tables() const noexcept { return owned_tables_.size(); }

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_arcs() const noexcept { return arcs_.size(); }
  std::size_t num_checks() const noexcept { return checks_.size(); }
  std::size_t num_live_nodes() const;
  std::size_t num_live_arcs() const;

  GraphNode& node(NodeId n) { return nodes_.at(n); }
  const GraphNode& node(NodeId n) const { return nodes_.at(n); }
  GraphArc& arc(ArcId a) { return arcs_.at(a); }
  const GraphArc& arc(ArcId a) const { return arcs_.at(a); }
  CheckArc& check(std::uint32_t c) { return checks_.at(c); }
  const CheckArc& check(std::uint32_t c) const { return checks_.at(c); }
  const std::vector<CheckArc>& checks() const noexcept { return checks_; }

  /// Live in/out delay-arc ids of a node (adjacency is rebuilt lazily).
  const std::vector<ArcId>& fanin(NodeId n) const;
  const std::vector<ArcId>& fanout(NodeId n) const;
  /// Live check ids whose data pin is n.
  const std::vector<std::uint32_t>& checks_of(NodeId n) const;

  /// Topological order over live nodes (lazily recomputed after
  /// mutations). Throws std::runtime_error if the graph has a cycle.
  const std::vector<NodeId>& topo_order() const;

  /// Boundary node lists in ordinal order.
  const std::vector<NodeId>& primary_inputs() const noexcept { return pis_; }
  const std::vector<NodeId>& primary_outputs() const noexcept { return pos_; }
  NodeId clock_root() const noexcept { return clock_root_; }

  void set_primary_input(NodeId n, std::uint32_t ordinal, bool is_clock);
  void set_primary_output(NodeId n, std::uint32_t ordinal);

  /// Total owned-table storage in doubles (model-size accounting).
  std::size_t owned_table_doubles() const;

  /// Approximate resident size of the graph in bytes (nodes, arcs,
  /// checks, names, owned tables) — the model-usage-memory metric.
  std::size_t memory_bytes() const;

  /// Monotonic counter bumped by every structural mutation (plain
  /// mutators via invalidate(), delta_* mutators directly). Lets
  /// derived structures (the Sta's CSR + level schedule, sta/topology)
  /// cache against the graph and rebuild only when it actually changed.
  std::uint64_t structure_version() const noexcept {
    return structure_version_;
  }

 private:
  void invalidate() const;
  void rebuild_adjacency() const;

  std::vector<GraphNode> nodes_;
  std::vector<GraphArc> arcs_;
  std::vector<CheckArc> checks_;
  std::deque<ElRf<Lut>> owned_tables_;
  std::vector<NodeId> pis_;
  std::vector<NodeId> pos_;
  NodeId clock_root_ = kInvalidId;

  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::vector<ArcId>> fanin_;
  mutable std::vector<std::vector<ArcId>> fanout_;
  mutable std::vector<std::vector<std::uint32_t>> node_checks_;
  mutable bool topo_valid_ = false;
  mutable std::vector<NodeId> topo_;
  // Mutable: invalidate() is const (called from lazy cache fills'
  // mutation counterparts); the version only ever increases.
  mutable std::uint64_t structure_version_ = 0;
};

/// Build the flat timing graph of a design. Node ids equal pin ids.
TimingGraph build_timing_graph(const Design& design);

/// One cycle through live delay arcs, as node ids in traversal order
/// (cycle[i] feeds cycle[i+1], the last node feeds the first); empty if
/// the live graph is acyclic. Shared by TimingGraph::topo_order's error
/// message and the analysis-layer invariant checker.
std::vector<NodeId> find_cycle(const TimingGraph& g);

/// True if the node directly drives a primary output or is electrically
/// tied to an output net: a last-stage pin, whose timing varies with the
/// output load (always kept by the filter; a GNN input feature).
bool is_last_stage(const TimingGraph& g, NodeId n);

/// True for live clock-network pins with more than one delay fanout: the
/// CPPR-crucial common points of launch and capture clock paths (a
/// training-label rule, the is_CPPR feature of Table 1 and a pin the
/// iTimerM baseline protects).
bool is_cppr_crucial(const TimingGraph& g, NodeId n);

/// PERI-style slew degradation through a wire: the output slew of a wire
/// segment with Elmore delay `wire_delay` given input slew `slew_in`.
inline double wire_slew(double slew_in, double wire_delay) noexcept {
  const double d = 2.2 * wire_delay;
  return std::sqrt(slew_in * slew_in + d * d);
}

}  // namespace tmm
