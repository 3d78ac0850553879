#include "sta/propagation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/task_pool.hpp"

namespace tmm {

namespace {

constexpr std::size_t idx(NodeId n, unsigned el, unsigned rf) {
  return TimingStore::index(n, el, rf);
}

/// True if `cand` is worse (dominates) than `cur` in the el corner:
/// late keeps maxima, early keeps minima.
constexpr bool dominates(unsigned el, double cand, double cur) {
  return el == kLate ? cand > cur : cand < cur;
}

/// Grid positions for evaluating one cell arc's tables at a fixed load.
/// A one_grid arc locates the load once here and each slew once in
/// slew_pos(), on delay(0, 0)'s axes, and every table reuses them; any
/// other arc locates per table on that table's own axes (lookup). Both
/// evaluate Lut::at(locate(slew), locate(load)) of the table, so which
/// way an arc goes never changes a bit.
class ArcGrid {
 public:
  ArcGrid(const GraphArc& arc, double load) : arc_(arc), load_(load) {
    if (arc.one_grid) c_ = Lut::locate((*arc.delay)(0, 0).load_index(), load);
  }
  Lut::Pos slew_pos(double slew) const noexcept {
    return arc_.one_grid ? Lut::locate((*arc_.delay)(0, 0).slew_index(), slew)
                         : Lut::Pos{};
  }
  /// The table's value at (slew, load); `s` is slew_pos(slew).
  double eval(const Lut& t, Lut::Pos s, double slew) const noexcept {
    return arc_.one_grid ? t.at(s, c_) : t.lookup(slew, load_);
  }

 private:
  const GraphArc& arc_;
  double load_;
  Lut::Pos c_;
};

/// Nodes per task-pool chunk in the level-parallel passes. A node's
/// relaxation is a handful of LUT lookups (~a microsecond for typical
/// fanin), so 16 nodes amortize the chunk-claim atomic while leaving
/// wide levels enough chunks to balance.
constexpr std::size_t kLevelGrain = 16;
/// Check-seeding chunks are per data pin (each pin's checks go to one
/// task so all writes stay on that pin); seeds are heavier than node
/// relaxations when CPPR walks clock chains, so chunk fewer of them.
constexpr std::size_t kCheckGrain = 8;

// Metric handles resolved once at namespace scope: the TS loop runs the
// engine once per pin per constraint set, and the registry name lookup
// plus the guard check of a function-local static are measurable there.
// The registry itself is a leaked function-local static, so this is
// safe at static-initialization time.
obs::Counter& g_runs = obs::counter("sta.runs");
obs::Counter& g_parallel_runs = obs::counter("sta.parallel_runs");
obs::Counter& g_nodes_propagated = obs::counter("sta.nodes_propagated");
obs::Counter& g_nan_detected = obs::counter("sta.nan_detected");
obs::Counter& g_incremental_runs = obs::counter("sta.incremental_runs");
obs::Counter& g_slew_only_runs = obs::counter("sta.slew_only_runs");

}  // namespace

SnapshotDiff diff_snapshots(const BoundarySnapshot& a,
                            const BoundarySnapshot& b) {
  SnapshotDiff out;
  double sum_abs = 0.0;
  double sum_rel = 0.0;
  auto scan = [&](const std::vector<double>& x, const std::vector<double>& y) {
    const std::size_t n = std::min(x.size(), y.size());
    for (std::size_t i = 0; i < n; ++i) {
      const bool fx = std::isfinite(x[i]);
      const bool fy = std::isfinite(y[i]);
      if (fx != fy) {
        ++out.mismatched;
        continue;
      }
      if (!fx) continue;  // both unconstrained/unreached: equal by convention
      const double d = std::fabs(x[i] - y[i]);
      out.max_abs = std::max(out.max_abs, d);
      sum_abs += d;
      sum_rel += d / std::max(std::fabs(y[i]), 1e-6);
      ++out.compared;
    }
    if (x.size() != y.size()) out.mismatched += std::max(x.size(), y.size()) - n;
  };
  scan(a.slew, b.slew);
  scan(a.at, b.at);
  scan(a.rat, b.rat);
  scan(a.slack, b.slack);
  if (out.compared > 0) {
    out.avg_abs = sum_abs / static_cast<double>(out.compared);
    out.avg_rel = sum_rel / static_cast<double>(out.compared);
  }
  return out;
}

Sta::Sta(const TimingGraph& graph, Options opt) : graph_(&graph), opt_(opt) {}

std::size_t Sta::resolve_parallelism() const {
  if (opt_.threads == 1) return 1;
  if (graph_->num_nodes() < opt_.parallel_min_nodes) return 1;
  const std::size_t want =
      opt_.threads == 0 ? util::TaskPool::default_threads() : opt_.threads;
  return std::max<std::size_t>(1, want);
}

void Sta::ensure_topology() {
  if (topo_valid_ && topo_.graph_version == graph_->structure_version())
    return;
  topo_ = StaTopology::build(*graph_);
  topo_valid_ = true;
}

void Sta::run(const BoundaryConstraints& bc) {
  obs::Span span("sta.run");
  g_runs.add();
  const std::size_t n = graph_->num_nodes();
  store_.assign_nodes(n);
  preds_.assign(n * TimingStore::kLanes, Pred{});
  credits_.assign(n * TimingStore::kLanes, 0.0);
  eff_load_.assign(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    const auto& node = graph_->node(u);
    if (node.dead) continue;
    double load = node.static_load_ff;
    for (std::uint32_t po : node.attached_po_loads)
      if (po < bc.po.size()) load += bc.po[po].load_ff;
    eff_load_[u] = load;
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      store_.at[idx(u, kLate, rf)] = -kInf;
      store_.at[idx(u, kEarly, rf)] = kInf;
      store_.slew[idx(u, kLate, rf)] = -kInf;
      store_.slew[idx(u, kEarly, rf)] = kInf;
      store_.rat[idx(u, kLate, rf)] = kInf;
      store_.rat[idx(u, kEarly, rf)] = -kInf;
    }
  }
  const std::size_t par = resolve_parallelism();
  if (par > 1) {
    g_parallel_runs.add();
    span.set_arg("threads", static_cast<double>(par));
  }
  ensure_topology();
  // topo_order() throws unless it covers every live node, so the level
  // schedule holds exactly the live nodes.
  g_nodes_propagated.add(topo_.level_nodes.size());
  forward(bc, par);
  seed_backward(bc, par);
  backward(par);
  check_boundary_nan();
}

void Sta::check_boundary_nan() const {
  fault::inject("sta.run");
  // ±Inf is a legitimate "unconstrained" value; NaN is always
  // corruption (a poisoned LUT, a bad derate) and would otherwise leak
  // into labels and macro models silently. Scanning the boundary only
  // keeps this O(ports), negligible next to the propagation itself.
  auto scan = [&](NodeId u) {
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        const std::size_t k = idx(u, el, rf);
        if (std::isnan(store_.at[k]) || std::isnan(store_.slew[k]) ||
            std::isnan(store_.rat[k])) {
          g_nan_detected.add();
          throw fault::FlowError(fault::ErrorCode::kNumeric, "sta.run",
                                 "NaN timing value after propagation", {},
                                 graph_->node(u).name);
        }
      }
  };
  // Ordinal gaps leave kInvalidId holes in the port lists.
  for (NodeId u : graph_->primary_inputs())
    if (u != kInvalidId) scan(u);
  for (NodeId u : graph_->primary_outputs())
    if (u != kInvalidId) scan(u);
}

void Sta::forward(const BoundaryConstraints& bc, std::size_t par) {
  // Levels ascend: every fanin of a level-L node lives strictly below
  // L, so all values a relaxation reads are finalized before its level
  // starts.
  for (std::size_t l = 0; l < topo_.num_levels(); ++l) {
    const std::span<const NodeId> nodes = topo_.level(l);
    util::parallel_chunks(
        nodes.size(), kLevelGrain, par, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i)
            relax_forward_node(nodes[i], bc, topo_.fanin(nodes[i]));
        });
  }
}

void Sta::relax_forward_node(NodeId v, const BoundaryConstraints& bc,
                             std::span<const ArcId> fanin) {
  for (unsigned rf = 0; rf < kNumRf; ++rf) {
    store_.at[idx(v, kLate, rf)] = -kInf;
    store_.at[idx(v, kEarly, rf)] = kInf;
    store_.slew[idx(v, kLate, rf)] = -kInf;
    store_.slew[idx(v, kEarly, rf)] = kInf;
  }
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) preds_[idx(v, el, rf)] = Pred{};
  const GraphNode& node = graph_->node(v);
  if (node.role == NodeRole::kPrimaryInput && node.port_ordinal < bc.pi.size()) {
    const PiConstraint& c = bc.pi[node.port_ordinal];
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        store_.at[idx(v, el, rf)] = c.at(el, rf);
        store_.slew[idx(v, el, rf)] = c.slew(el, rf);
      }
  }
  for (ArcId aid : fanin) {
    const GraphArc& a = graph_->arc(aid);
    const std::size_t ub = a.from * TimingStore::kLanes;
    if (a.kind == GraphArcKind::kWire) {
      for (unsigned el = 0; el < kNumEl; ++el) {
        for (unsigned rf = 0; rf < kNumRf; ++rf) {
          const std::size_t lane = el * kNumRf + rf;
          const double su = store_.slew[ub + lane];
          if (std::isfinite(su)) {
            const double so = wire_slew(su, a.wire_delay_ps);
            if (dominates(el, so, store_.slew[idx(v, el, rf)]))
              store_.slew[idx(v, el, rf)] = so;
          }
          const double atu = store_.at[ub + lane];
          if (std::isfinite(atu)) {
            const double cand = atu + a.wire_delay_ps;
            if (dominates(el, cand, store_.at[idx(v, el, rf)])) {
              store_.at[idx(v, el, rf)] = cand;
              preds_[idx(v, el, rf)] = {aid, static_cast<std::uint8_t>(rf)};
            }
          }
        }
      }
    } else {
      const ArcGrid grid(a, eff_load_[v]);
      for (unsigned el = 0; el < kNumEl; ++el) {
        const double derate =
            a.baked_derate
                ? 1.0
                : opt_.aocv.derate(el, graph_->node(a.from).aocv_depth);
        for (unsigned irf = 0; irf < kNumRf; ++irf) {
          const double su = store_.slew[ub + el * kNumRf + irf];
          if (!std::isfinite(su)) continue;
          const Lut::Pos s = grid.slew_pos(su);
          const unsigned mask = output_transitions(a.sense, irf);
          for (unsigned orf = 0; orf < kNumRf; ++orf) {
            if (!(mask & (1u << orf))) continue;
            const double d = grid.eval((*a.delay)(el, orf), s, su) * derate;
            const double so = grid.eval((*a.out_slew)(el, orf), s, su);
            if (dominates(el, so, store_.slew[idx(v, el, orf)]))
              store_.slew[idx(v, el, orf)] = so;
            const double atu = store_.at[ub + el * kNumRf + irf];
            if (std::isfinite(atu)) {
              const double cand = atu + d;
              if (dominates(el, cand, store_.at[idx(v, el, orf)])) {
                store_.at[idx(v, el, orf)] = cand;
                preds_[idx(v, el, orf)] = {aid, static_cast<std::uint8_t>(irf)};
              }
            }
          }
        }
      }
    }
  }
}

NodeId Sta::trace_launch_clock(NodeId data, unsigned el, unsigned rf) const {
  NodeId u = data;
  unsigned crf = rf;
  for (std::size_t steps = 0; steps <= graph_->num_nodes(); ++steps) {
    const Pred p = preds_[idx(u, el, crf)];
    if (p.arc == kInvalidId) return kInvalidId;  // reached a PI seed
    const GraphArc& a = graph_->arc(p.arc);
    if (a.is_launch) return a.from;
    u = a.from;
    crf = p.from_rf;
  }
  return kInvalidId;
}

double Sta::cppr_credit(NodeId launch_ck, NodeId capture_ck) const {
  if (launch_ck == kInvalidId || capture_ck == kInvalidId) return 0.0;
  // Ancestors of the capture clock pin along its (early, rise) worst
  // path up to the clock root (clock networks are trees in practice;
  // the pred chain is exactly the root-to-pin path), sorted for
  // membership tests. Per thread: check seeding may run on the pool.
  thread_local std::vector<NodeId> capture_chain;
  capture_chain.clear();
  {
    NodeId u = capture_ck;
    unsigned rf = kRise;
    capture_chain.push_back(u);
    for (std::size_t steps = 0; steps <= graph_->num_nodes(); ++steps) {
      const Pred p = preds_[idx(u, kEarly, rf)];
      if (p.arc == kInvalidId) break;
      u = graph_->arc(p.arc).from;
      rf = p.from_rf;
      capture_chain.push_back(u);
    }
  }
  std::sort(capture_chain.begin(), capture_chain.end());
  // Walk up from the launch clock pin; the first node also on the
  // capture chain is the branch point (LCA).
  NodeId u = launch_ck;
  unsigned rf = kRise;
  for (std::size_t steps = 0; steps <= graph_->num_nodes(); ++steps) {
    if (std::binary_search(capture_chain.begin(), capture_chain.end(), u)) {
      const double late = store_.at[idx(u, kLate, rf)];
      const double early = store_.at[idx(u, kEarly, rf)];
      if (!std::isfinite(late) || !std::isfinite(early)) return 0.0;
      return std::max(0.0, late - early);
    }
    const Pred p = preds_[idx(u, kLate, rf)];
    if (p.arc == kInvalidId) break;
    u = graph_->arc(p.arc).from;
    rf = p.from_rf;
  }
  return 0.0;
}

void Sta::apply_check_seed(const CheckArc& c, const BoundaryConstraints& bc) {
  // Setup bounds the late data arrival by the early capture edge one
  // period later; hold bounds the early data arrival by the late edge.
  const unsigned el = c.is_setup ? kLate : kEarly;
  const double ck_slew = store_.slew[idx(c.clock, kLate, kRise)];
  const double ck_at =
      store_.at[idx(c.clock, c.is_setup ? kEarly : kLate, kRise)];
  if (!std::isfinite(ck_slew) || !std::isfinite(ck_at)) return;
  for (unsigned rf = 0; rf < kNumRf; ++rf) {
    const double d_slew = store_.slew[idx(c.data, el, rf)];
    if (!std::isfinite(d_slew)) continue;
    const double guard = (*c.guard)(el, rf).lookup(ck_slew, d_slew);
    const double credit =
        opt_.cppr ? cppr_credit(trace_launch_clock(c.data, el, rf), c.clock)
                  : 0.0;
    credits_[idx(c.data, el, rf)] = credit;
    double& rat = store_.rat[idx(c.data, el, rf)];
    if (c.is_setup) {
      const double cand = bc.clock_period_ps + ck_at - guard + credit;
      if (cand < rat) rat = cand;
    } else {
      const double cand = ck_at + guard - credit;
      if (cand > rat) rat = cand;
    }
  }
}

void Sta::seed_backward(const BoundaryConstraints& bc, std::size_t par) {
  const auto& pos = graph_->primary_outputs();
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    if (pos[i] == kInvalidId || i >= bc.po.size()) continue;
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      store_.rat[idx(pos[i], kLate, rf)] = bc.po[i].rat(kLate, rf);
      store_.rat[idx(pos[i], kEarly, rf)] = bc.po[i].rat(kEarly, rf);
    }
  }

  // One task per data pin: a pin's checks are applied by one thread in
  // ascending check-id order, and a check writes only its data pin's
  // credit (assigned, so per-pin order matters and is kept) and rat
  // lanes (min/max, order-free) — so results do not depend on how pins
  // are chunked. Reads (clock slew/at, pred chains) are finalized
  // forward-pass state.
  util::parallel_chunks(topo_.check_pins.size(), kCheckGrain, par,
                        [&](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i)
                            for (std::uint32_t cid : topo_.checks_of_pin(i))
                              apply_check_seed(graph_->check(cid), bc);
                        });
}

void Sta::relax_backward_arcs(NodeId u, std::span<const ArcId> fanout) {
  for (ArcId aid : fanout) {
    const GraphArc& a = graph_->arc(aid);
    if (a.kind == GraphArcKind::kWire) {
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        const double rl = store_.rat[idx(a.to, kLate, rf)];
        if (std::isfinite(rl) &&
            rl - a.wire_delay_ps < store_.rat[idx(u, kLate, rf)])
          store_.rat[idx(u, kLate, rf)] = rl - a.wire_delay_ps;
        const double re = store_.rat[idx(a.to, kEarly, rf)];
        if (std::isfinite(re) &&
            re - a.wire_delay_ps > store_.rat[idx(u, kEarly, rf)])
          store_.rat[idx(u, kEarly, rf)] = re - a.wire_delay_ps;
      }
    } else {
      const ArcGrid grid(a, eff_load_[a.to]);
      for (unsigned el = 0; el < kNumEl; ++el) {
        const double derate =
            a.baked_derate
                ? 1.0
                : opt_.aocv.derate(el, graph_->node(a.from).aocv_depth);
        for (unsigned irf = 0; irf < kNumRf; ++irf) {
          const double su = store_.slew[idx(u, el, irf)];
          if (!std::isfinite(su)) continue;
          const Lut::Pos s = grid.slew_pos(su);
          const unsigned mask = output_transitions(a.sense, irf);
          for (unsigned orf = 0; orf < kNumRf; ++orf) {
            if (!(mask & (1u << orf))) continue;
            const double rv = store_.rat[idx(a.to, el, orf)];
            if (!std::isfinite(rv)) continue;
            const double d = grid.eval((*a.delay)(el, orf), s, su) * derate;
            const double cand = rv - d;
            if (el == kLate) {
              if (cand < store_.rat[idx(u, kLate, irf)])
                store_.rat[idx(u, kLate, irf)] = cand;
            } else {
              if (cand > store_.rat[idx(u, kEarly, irf)])
                store_.rat[idx(u, kEarly, irf)] = cand;
            }
          }
        }
      }
    }
  }
}

void Sta::backward(std::size_t par) {
  // Levels descend: a node's fanout targets live in strictly higher
  // levels, already finalized. relax_backward_arcs writes only u's own
  // rat lanes, so nodes within a level are independent.
  for (std::size_t l = topo_.num_levels(); l-- > 0;) {
    const std::span<const NodeId> nodes = topo_.level(l);
    util::parallel_chunks(
        nodes.size(), kLevelGrain, par, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            const NodeId u = nodes[i];
            if (graph_->node(u).in_clock_network) continue;
            relax_backward_arcs(u, topo_.fanout(u));
          }
        });
  }
}

void Sta::relax_backward_node(NodeId u, const BoundaryConstraints& bc) {
  for (unsigned rf = 0; rf < kNumRf; ++rf) {
    store_.rat[idx(u, kLate, rf)] = kInf;
    store_.rat[idx(u, kEarly, rf)] = -kInf;
  }
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) credits_[idx(u, el, rf)] = 0.0;
  const GraphNode& node = graph_->node(u);
  if (node.role == NodeRole::kPrimaryOutput && node.port_ordinal < bc.po.size()) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      store_.rat[idx(u, kLate, rf)] = bc.po[node.port_ordinal].rat(kLate, rf);
      store_.rat[idx(u, kEarly, rf)] = bc.po[node.port_ordinal].rat(kEarly, rf);
    }
  }
  for (std::uint32_t cid : graph_->checks_of(u))
    apply_check_seed(graph_->check(cid), bc);
  relax_backward_arcs(u);
}

void Sta::set_reference() {
  if (store_.num_nodes() != graph_->num_nodes())
    throw std::logic_error("Sta::set_reference: call run() first");
  ref_store_ = store_;
  ref_preds_ = preds_;
  ref_credits_ = credits_;
  const std::size_t n = graph_->num_nodes();
  // The concatenated levels are a topological order of the live nodes.
  // Deltas only kill nodes/arcs and add arcs between nodes the graph
  // already connects by a path (TimingGraph's delta contract), so this
  // order stays a valid worklist priority in every delta state.
  ensure_topology();
  topo_pos_.assign(n, 0);
  for (std::size_t i = 0; i < topo_.level_nodes.size(); ++i)
    topo_pos_[topo_.level_nodes[i]] = static_cast<std::uint32_t>(i);
  is_modified_.assign(n, 0);
  is_changed_.assign(n, 0);
  value_changed_.assign(n, 0);
  fwd_stamp_.assign(n, 0);
  bwd_stamp_.assign(n, 0);
  incr_gen_ = 0;
  modified_.clear();
  changed_.clear();
  has_reference_ = true;
}

void Sta::mark_modified(NodeId v) {
  if (!is_modified_[v]) {
    is_modified_[v] = 1;
    modified_.push_back(v);
  }
}

void Sta::mark_changed(NodeId v) {
  if (!is_changed_[v]) {
    is_changed_[v] = 1;
    changed_.push_back(v);
  }
}

void Sta::restore_reference() {
  constexpr std::size_t stride = TimingStore::kLanes;
  for (NodeId v : modified_) {
    const std::size_t base = static_cast<std::size_t>(v) * stride;
    for (std::size_t k = base; k < base + stride; ++k) {
      store_.slew[k] = ref_store_.slew[k];
      store_.at[k] = ref_store_.at[k];
      store_.rat[k] = ref_store_.rat[k];
      preds_[k] = ref_preds_[k];
      credits_[k] = ref_credits_[k];
    }
    is_modified_[v] = 0;
  }
  modified_.clear();
  for (NodeId v : changed_) {
    is_changed_[v] = 0;
    value_changed_[v] = 0;
  }
  changed_.clear();
}

bool Sta::clock_chain_dirty(NodeId ck, unsigned el) const {
  if (ck == kInvalidId) return false;
  NodeId u = ck;
  unsigned rf = kRise;
  for (std::size_t steps = 0; steps <= graph_->num_nodes(); ++steps) {
    if (is_changed_[u]) return true;
    const Pred p = preds_[idx(u, el, rf)];
    if (p.arc == kInvalidId) break;
    u = graph_->arc(p.arc).from;
    rf = p.from_rf;
  }
  return false;
}

bool Sta::check_dirty(const CheckArc& c) const {
  if (is_changed_[c.data] || is_changed_[c.clock]) return true;
  if (!opt_.cppr) return false;
  // The CPPR credit reads the data pin's worst launch chain, the launch
  // clock's (late, rise) chain and the capture clock's (early, rise)
  // chain. If chains diverged from the reference, the first divergence
  // is a pred change on the current chain's common prefix, so walking
  // the current chains and testing F' membership is exact.
  const unsigned el = c.is_setup ? kLate : kEarly;
  for (unsigned rf = 0; rf < kNumRf; ++rf) {
    NodeId u = c.data;
    unsigned crf = rf;
    NodeId launch = kInvalidId;
    for (std::size_t steps = 0; steps <= graph_->num_nodes(); ++steps) {
      if (is_changed_[u]) return true;
      const Pred p = preds_[idx(u, el, crf)];
      if (p.arc == kInvalidId) break;
      const GraphArc& a = graph_->arc(p.arc);
      if (a.is_launch) {
        launch = a.from;
        break;
      }
      u = a.from;
      crf = p.from_rf;
    }
    if (clock_chain_dirty(launch, kLate)) return true;
  }
  return clock_chain_dirty(c.clock, kEarly);
}

StaIncrementalStats Sta::run_incremental(const BoundaryConstraints& bc,
                                         std::span<const NodeId> dirty) {
  if (!has_reference_)
    throw std::logic_error("Sta::run_incremental: no reference set");
  obs::Span span("sta.run_incremental");
  g_incremental_runs.add();
  StaIncrementalStats stats;
  stats.seeds = dirty.size();
  restore_reference();
  ++incr_gen_;

  constexpr std::size_t stride = TimingStore::kLanes;
  using Entry = std::pair<std::uint32_t, NodeId>;

  // --- forward: min-heap over cached topo positions. Pops are non-
  // decreasing (pushes go strictly downstream), so each node is
  // recomputed at most once, after all its fanins settled.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> fwd;
  auto fwd_push = [&](NodeId v) {
    if (graph_->node(v).dead) return;
    if (fwd_stamp_[v] == incr_gen_) return;
    fwd_stamp_[v] = incr_gen_;
    fwd.push({topo_pos_[v], v});
  };
  for (NodeId v : dirty) fwd_push(v);
  while (!fwd.empty()) {
    const NodeId v = fwd.top().second;
    fwd.pop();
    ++stats.fwd_recomputed;
    mark_modified(v);
    std::array<double, stride> old_at;
    std::array<double, stride> old_slew;
    std::array<Pred, stride> old_preds;
    for (std::size_t k = 0; k < stride; ++k) {
      old_at[k] = store_.at[v * stride + k];
      old_slew[k] = store_.slew[v * stride + k];
      old_preds[k] = preds_[v * stride + k];
    }
    relax_forward_node(v, bc);
    bool value_diff = false;
    bool pred_diff = false;
    for (std::size_t k = 0; k < stride; ++k) {
      if (store_.at[v * stride + k] != old_at[k] ||
          store_.slew[v * stride + k] != old_slew[k])
        value_diff = true;
      const Pred& np = preds_[v * stride + k];
      const Pred& op = old_preds[k];
      if (np.arc != op.arc || np.from_rf != op.from_rf) pred_diff = true;
    }
    if (value_diff) {
      value_changed_[v] = 1;
      ++stats.fwd_changed;
      for (ArcId aid : graph_->fanout(v)) fwd_push(graph_->arc(aid).to);
    }
    if (value_diff || pred_diff) mark_changed(v);
  }

  // --- backward: seeds are nodes with changed arc sets (the delta),
  // nodes whose own slew feeds backward delay lookups (value-changed),
  // and data pins of checks whose seed inputs changed.
  std::priority_queue<Entry> bwd;  // max-heap: highest topo position first
  auto bwd_push = [&](NodeId u) {
    if (graph_->node(u).dead) return;
    if (graph_->node(u).in_clock_network) return;
    if (bwd_stamp_[u] == incr_gen_) return;
    bwd_stamp_[u] = incr_gen_;
    bwd.push({topo_pos_[u], u});
  };
  for (NodeId u : dirty) bwd_push(u);
  for (NodeId u : changed_)
    if (value_changed_[u]) bwd_push(u);
  if (!changed_.empty()) {
    for (const CheckArc& c : graph_->checks()) {
      if (c.dead) continue;
      if (check_dirty(c)) {
        ++stats.checks_dirty;
        bwd_push(c.data);
      }
    }
  }
  while (!bwd.empty()) {
    const NodeId u = bwd.top().second;
    bwd.pop();
    ++stats.bwd_recomputed;
    mark_modified(u);
    std::array<double, stride> old_rat;
    for (std::size_t k = 0; k < stride; ++k)
      old_rat[k] = store_.rat[u * stride + k];
    relax_backward_node(u, bc);
    bool rat_diff = false;
    for (std::size_t k = 0; k < stride; ++k)
      if (store_.rat[u * stride + k] != old_rat[k]) rat_diff = true;
    if (rat_diff) {
      ++stats.bwd_changed;
      for (ArcId aid : graph_->fanin(u)) bwd_push(graph_->arc(aid).from);
    }
  }

  g_nodes_propagated.add(stats.fwd_recomputed + stats.bwd_recomputed);
  span.set_arg("seeds", static_cast<double>(stats.seeds));
  span.set_arg("frontier",
               static_cast<double>(stats.fwd_recomputed + stats.bwd_recomputed));
  check_boundary_nan();
  return stats;
}

double Sta::slack(NodeId n, unsigned el, unsigned rf) const {
  const double at = store_.at.at(idx(n, el, rf));
  const double rat = store_.rat[idx(n, el, rf)];
  if (!std::isfinite(at) || !std::isfinite(rat)) return kInf;
  return el == kLate ? rat - at : at - rat;
}

double Sta::worst_slack(unsigned el, bool include_pos) const {
  double worst = kInf;
  for (const auto& c : graph_->checks()) {
    if (c.dead) continue;
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      worst = std::min(worst, slack(c.data, el, rf));
  }
  if (include_pos) {
    for (NodeId po : graph_->primary_outputs()) {
      if (po == kInvalidId) continue;
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        worst = std::min(worst, slack(po, el, rf));
    }
  }
  return worst;
}

double Sta::endpoint_credit(NodeId data, unsigned el, unsigned rf) const {
  return credits_.at(idx(data, el, rf));
}

std::vector<Sta::PathStep> Sta::worst_path(NodeId endpoint, unsigned el,
                                           unsigned rf) const {
  std::vector<PathStep> path;
  if (!std::isfinite(store_.at.at(idx(endpoint, el, rf)))) return path;
  NodeId u = endpoint;
  unsigned crf = rf;
  for (std::size_t steps = 0; steps <= graph_->num_nodes(); ++steps) {
    const Pred p = preds_[idx(u, el, crf)];
    path.push_back({u, p.arc, crf, store_.at[idx(u, el, crf)]});
    if (p.arc == kInvalidId) break;
    u = graph_->arc(p.arc).from;
    crf = p.from_rf;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

NodeId Sta::worst_endpoint(unsigned el, unsigned* rf_out) const {
  NodeId worst = kInvalidId;
  unsigned worst_rf = kRise;
  double worst_slack = kInf;
  for (const auto& c : graph_->checks()) {
    if (c.dead) continue;
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      const double s = slack(c.data, el, rf);
      if (s < worst_slack) {
        worst_slack = s;
        worst = c.data;
        worst_rf = rf;
      }
    }
  }
  if (rf_out) *rf_out = worst_rf;
  return worst;
}

void Sta::snapshot_into(BoundarySnapshot& out) const {
  const std::size_t stride = TimingStore::kLanes;
  const auto& pis = graph_->primary_inputs();
  const auto& pos = graph_->primary_outputs();
  out.num_ports = pis.size() + pos.size();
  out.slew.assign(out.num_ports * stride, kInf);
  out.at.assign(out.num_ports * stride, kInf);
  out.rat.assign(out.num_ports * stride, kInf);
  out.slack.assign(out.num_ports * stride, kInf);
  auto fill = [&](std::size_t i, NodeId p) {
    if (p == kInvalidId) return;
    const std::size_t base = static_cast<std::size_t>(p) * stride;
    for (std::size_t lane = 0; lane < stride; ++lane) {
      const std::size_t k = i * stride + lane;
      out.slew[k] = store_.slew[base + lane];
      out.at[k] = store_.at[base + lane];
      out.rat[k] = store_.rat[base + lane];
      out.slack[k] = slack(p, static_cast<unsigned>(lane / kNumRf),
                           static_cast<unsigned>(lane % kNumRf));
    }
  };
  std::size_t i = 0;
  for (NodeId p : pis) fill(i++, p);
  for (NodeId p : pos) fill(i++, p);
}

BoundarySnapshot Sta::boundary_snapshot() const {
  BoundarySnapshot snap;
  snapshot_into(snap);
  return snap;
}

std::vector<double> propagate_slew_only(const TimingGraph& graph,
                                        double pi_slew_ps, double po_load_ff) {
  obs::Span span("sta.slew_only");
  g_slew_only_runs.add();
  const std::size_t n = graph.num_nodes();
  // Work in the late corner over both transitions; report the max.
  std::vector<double> slew(n * kNumRf, -kInf);
  for (NodeId p : graph.primary_inputs()) {
    if (p == kInvalidId) continue;
    slew[p * kNumRf + kRise] = pi_slew_ps;
    slew[p * kNumRf + kFall] = pi_slew_ps;
  }
  for (NodeId u : graph.topo_order()) {
    for (ArcId aid : graph.fanout(u)) {
      const GraphArc& a = graph.arc(aid);
      if (a.kind == GraphArcKind::kWire) {
        for (unsigned rf = 0; rf < kNumRf; ++rf) {
          const double su = slew[u * kNumRf + rf];
          if (!std::isfinite(su)) continue;
          const double so = wire_slew(su, a.wire_delay_ps);
          auto& tv = slew[a.to * kNumRf + rf];
          if (so > tv) tv = so;
        }
      } else {
        double load = graph.node(a.to).static_load_ff;
        if (!graph.node(a.to).attached_po_loads.empty())
          load += po_load_ff *
                  static_cast<double>(graph.node(a.to).attached_po_loads.size());
        for (unsigned irf = 0; irf < kNumRf; ++irf) {
          const double su = slew[u * kNumRf + irf];
          if (!std::isfinite(su)) continue;
          const unsigned mask = output_transitions(a.sense, irf);
          for (unsigned orf = 0; orf < kNumRf; ++orf) {
            if (!(mask & (1u << orf))) continue;
            const double so = (*a.out_slew)(kLate, orf).lookup(su, load);
            auto& tv = slew[a.to * kNumRf + orf];
            if (so > tv) tv = so;
          }
        }
      }
    }
  }
  std::vector<double> out(n, -kInf);
  for (NodeId u = 0; u < n; ++u)
    out[u] = std::max(slew[u * kNumRf + kRise], slew[u * kNumRf + kFall]);
  return out;
}

}  // namespace tmm
