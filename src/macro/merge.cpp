#include "macro/merge.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tmm {

namespace {

// Metric handles resolved once at namespace scope instead of per call
// (the registry is a leaked function-local static, so this is safe at
// static-initialization time).
obs::Counter& g_pins_removed = obs::counter("merge.pins_removed");
obs::Counter& g_serial_arcs = obs::counter("merge.serial_arcs_created");
obs::Counter& g_parallel_arcs = obs::counter("merge.parallel_arcs_merged");
obs::Counter& g_refused = obs::counter("merge.refused");

/// Parallel-duplicate identity of a delay arc: same endpoints *and the
/// same unateness* (enveloping arcs of different senses would conflate
/// per-transition surfaces).
std::uint64_t parallel_key(const GraphArc& arc) {
  return (static_cast<std::uint64_t>(arc.from) << 33) |
         (static_cast<std::uint64_t>(arc.to) << 2) |
         static_cast<std::uint64_t>(arc.sense);
}

/// Static (degree-independent) legality of merging node n.
bool mergeable_static(const TimingGraph& g, NodeId n) {
  const auto& node = g.node(n);
  if (node.dead) return false;
  if (node.role != NodeRole::kInternal) return false;
  if (node.is_ff_clock || node.is_ff_data || node.is_clock_root) return false;
  if (!node.attached_po_loads.empty()) return false;
  return true;
}

struct LocalAdjacency {
  std::vector<std::vector<ArcId>> fanin;
  std::vector<std::vector<ArcId>> fanout;
  std::vector<bool> has_check;

  explicit LocalAdjacency(const TimingGraph& g)
      : fanin(g.num_nodes()), fanout(g.num_nodes()),
        has_check(g.num_nodes(), false) {
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const auto& arc = g.arc(a);
      if (arc.dead) continue;
      fanout[arc.from].push_back(a);
      fanin[arc.to].push_back(a);
    }
    for (const auto& c : g.checks()) {
      if (c.dead) continue;
      has_check[c.clock] = true;
      has_check[c.data] = true;
    }
  }

  void remove(std::vector<ArcId>& v, ArcId a) {
    for (auto& x : v)
      if (x == a) {
        x = v.back();
        v.pop_back();
        return;
      }
  }
};

/// Chains backing the arcs a merge created, keyed by arc id; primitive
/// arcs have no entry.
using ChainMap = std::unordered_map<ArcId, Chain>;

/// Parallel key -> the arc that represents it.
using KeyIndex = std::unordered_map<std::uint64_t, ArcId>;

/// The chain behind arc `a`: its recorded chain, or the primitive arc as
/// a one-segment chain.
Chain chain_of(const TimingGraph& g, const ChainMap& chains, ArcId a) {
  auto it = chains.find(a);
  if (it != chains.end()) return it->second;
  const GraphArc& arc = g.arc(a);
  return Chain{{arc, g.node(arc.to).static_load_ff,
                g.node(arc.from).aocv_depth}};
}

/// The chain that replaces fanin arc `ia` followed by fanout arc `oa`.
Chain spliced_chain(const TimingGraph& g, const ChainMap& chains, ArcId ia,
                    ArcId oa) {
  Chain merged = chain_of(g, chains, ia);
  const Chain tail = chain_of(g, chains, oa);
  merged.insert(merged.end(), tail.begin(), tail.end());
  return merged;
}

// Graph mutators with the `delta` switch: through the cache-preserving
// delta_* API (MergeDelta) or the plain one (full merge); the resulting
// graph is identical either way.

ArcId add_arc(TimingGraph& g, NodeId from, NodeId to, ArcSense sense,
              const ElRf<Lut>* delay, const ElRf<Lut>* out_slew, bool delta) {
  return delta ? g.delta_add_cell_arc(from, to, sense, delay, out_slew, false)
               : g.add_cell_arc(from, to, sense, delay, out_slew, false);
}

void kill_arc(TimingGraph& g, ArcId a, bool delta) {
  if (delta)
    g.delta_kill_arc(a);
  else
    g.kill_arc(a);
}

/// Approximate serialized-storage cost a chain will have once
/// materialized, in doubles.
std::size_t chain_cost(const Chain& chain, std::size_t max_points) {
  const std::size_t mp = std::max<std::size_t>(2, max_points);
  const bool twod = arc_load_dependent(chain.back().arc);
  const std::size_t per_surface = twod ? (mp + mp + mp * mp) : (mp + mp);
  const std::size_t cost = 8 * per_surface;  // delay+slew x el x rf
  // Non-unate chains materialize as two sense-split arcs.
  return chain_sense(chain) == ArcSense::kNonUnate ? 2 * cost : cost;
}

/// Approximate serialized-storage cost of an arc, in doubles.
std::size_t arc_cost(const TimingGraph& g, ArcId a, const ChainMap& chains,
                     std::size_t max_points) {
  auto it = chains.find(a);
  if (it != chains.end()) return chain_cost(it->second, max_points);
  const GraphArc& arc = g.arc(a);
  if (arc.kind == GraphArcKind::kWire) return 4;
  std::size_t cost = 0;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      cost += (*arc.delay)(el, rf).storage_doubles() +
              (*arc.out_slew)(el, rf).storage_doubles();
  return cost;
}

/// Fan limits and launch adjacency for a pin with fanin `fin` and
/// fanout `fout`, both non-empty: true when the pin must be kept.
bool fan_refused(const TimingGraph& g, const std::vector<ArcId>& fin,
                 const std::vector<ArcId>& fout, const MergeConfig& cfg) {
  if ((cfg.single_fanin_only && fin.size() > 1) ||
      fin.size() * fout.size() > cfg.max_fan_product)
    return true;
  for (ArcId a : fin)
    if (g.arc(a).is_launch) return true;
  for (ArcId a : fout)
    if (g.arc(a).is_launch) return true;
  return false;
}

/// Storage gate: removing the pin must not grow the model. Compares the
/// storage of the incident arcs against the spliced chain arcs (merging
/// a high-fanout pin would duplicate its fanin surface per sink).
bool grows_model(const TimingGraph& g, const std::vector<ArcId>& fin,
                 const std::vector<ArcId>& fout, const ChainMap& chains,
                 const MergeConfig& cfg) {
  const std::size_t mp = cfg.index.max_points;
  std::size_t before = 24;  // node record itself
  for (ArcId a : fin) before += arc_cost(g, a, chains, mp);
  for (ArcId a : fout) before += arc_cost(g, a, chains, mp);
  std::size_t after = 0;
  for (ArcId ia : fin)
    for (ArcId oa : fout)
      after += chain_cost(spliced_chain(g, chains, ia, oa), mp);
  return after > before;
}

enum class Verdict {
  kIllegal,  ///< never a merge candidate (not counted as refused)
  kRefused,  ///< legal, but kept for timing safety or model size
  kMerge,
};

/// The merge rules both merge paths apply to pin `n` with live fanin
/// `fin` and fanout `fout` (see merge.hpp for the rationale).
Verdict merge_verdict(const TimingGraph& g, NodeId n, bool has_check,
                      const std::vector<ArcId>& fin,
                      const std::vector<ArcId>& fout, const ChainMap& chains,
                      const MergeConfig& cfg) {
  if (!mergeable_static(g, n) || has_check) return Verdict::kIllegal;
  if (fin.empty() || fout.empty()) return Verdict::kMerge;  // dangling
  if (fan_refused(g, fin, fout, cfg) || grows_model(g, fin, fout, chains, cfg))
    return Verdict::kRefused;
  return Verdict::kMerge;
}

/// Remove pin `n`: splice one chain arc per (fanin, fanout) pair, in
/// fanin-major order — the arc-id allocation and chain-map insertion
/// order both merge paths share — then kill the pin's incident arcs and
/// the pin. Tables are materialized later (materialize_chains).
void splice_out(TimingGraph& g, NodeId n, const std::vector<ArcId>& fin,
                const std::vector<ArcId>& fout, ChainMap& chains, bool delta) {
  for (ArcId ia : fin) {
    for (ArcId oa : fout) {
      const NodeId from = g.arc(ia).from;
      const NodeId to = g.arc(oa).to;
      Chain merged = spliced_chain(g, chains, ia, oa);
      const ArcId na = add_arc(g, from, to, chain_sense(merged), nullptr,
                               nullptr, delta);
      chains.emplace(na, std::move(merged));
    }
  }
  for (ArcId a : fin) {
    kill_arc(g, a, delta);
    chains.erase(a);
  }
  for (ArcId a : fout) {
    kill_arc(g, a, delta);
    chains.erase(a);
  }
  if (delta)
    g.delta_set_node_dead(n, true);
  else
    g.node(n).dead = true;
}

/// Give every live chain arc its tables, in chain-map iteration order.
/// Unate chains need one arc; non-unate chains split into a positive-
/// and a negative-unate variant (appended) so each input transition
/// keeps its own delay surface.
void materialize_chains(TimingGraph& g, const ChainMap& chains,
                        const MergeConfig& cfg, bool delta) {
  for (const auto& [id, chain] : chains) {
    if (g.arc(id).dead) continue;
    const ArcSense sense = chain_sense(chain);
    const ArcSense first = sense == ArcSense::kNegativeUnate
                               ? ArcSense::kNegativeUnate
                               : ArcSense::kPositiveUnate;
    ComposedTables ct = compose_chain(chain, first, cfg.index, cfg.aocv);
    GraphArc& arc = g.arc(id);
    arc.delay = g.own_tables(std::move(ct.delay));
    arc.out_slew = g.own_tables(std::move(ct.out_slew));
    arc.kind = GraphArcKind::kCell;
    arc.sense = first;
    arc.baked_derate = true;
    if (sense != ArcSense::kNonUnate) continue;
    ct = compose_chain(chain, ArcSense::kNegativeUnate, cfg.index, cfg.aocv);
    const NodeId from = arc.from;
    const NodeId to = arc.to;
    const ElRf<Lut>* dt = g.own_tables(std::move(ct.delay));
    const ElRf<Lut>* st = g.own_tables(std::move(ct.out_slew));
    const ArcId neg =
        add_arc(g, from, to, ArcSense::kNegativeUnate, dt, st, delta);
    g.arc(neg).baked_derate = true;
  }
}

/// Fold parallel duplicates among arcs [begin, num_arcs), scanning in id
/// order: a live non-launch arc whose key already has a representative
/// (an arc met earlier in the scan, else a live arc of `pristine`) is
/// enveloped with it into a new arc that becomes the representative.
/// Killed representatives below `begin` are appended to `killed`.
/// Returns the number of folds.
std::size_t fold_parallel(TimingGraph& g, ArcId begin,
                          const KeyIndex& pristine, const MergeConfig& cfg,
                          bool delta, std::vector<ArcId>& killed) {
  KeyIndex seen;
  std::size_t folds = 0;
  for (ArcId a = begin; a < g.num_arcs(); ++a) {
    const GraphArc arc = g.arc(a);
    if (arc.dead || arc.is_launch) continue;
    const std::uint64_t key = parallel_key(arc);
    ArcId repid = kInvalidId;
    if (auto it = seen.find(key); it != seen.end()) {
      repid = it->second;
    } else if (auto pt = pristine.find(key);
               pt != pristine.end() && !g.arc(pt->second).dead) {
      repid = pt->second;
    }
    if (repid == kInvalidId || repid == a) {
      seen.emplace(key, a);
      continue;
    }
    const GraphArc rep = g.arc(repid);
    ComposedTables ct = compose_parallel(rep, arc, cfg.index, cfg.aocv,
                                         g.node(arc.from).aocv_depth);
    const ElRf<Lut>* dt = g.own_tables(std::move(ct.delay));
    const ElRf<Lut>* st = g.own_tables(std::move(ct.out_slew));
    kill_arc(g, repid, delta);
    if (repid < begin) killed.push_back(repid);
    kill_arc(g, a, delta);
    const ArcId na = add_arc(g, arc.from, arc.to, ct.sense, dt, st, delta);
    g.arc(na).baked_derate =
        cfg.aocv.enabled || rep.baked_derate || arc.baked_derate;
    seen[key] = na;
    ++folds;
  }
  return folds;
}

}  // namespace

bool mergeable(const TimingGraph& g, NodeId n, const MergeConfig& cfg) {
  if (!mergeable_static(g, n) || !g.checks_of(n).empty()) return false;
  const auto& fin = g.fanin(n);
  const auto& fout = g.fanout(n);
  return fin.empty() || fout.empty() || !fan_refused(g, fin, fout, cfg);
}

MergeStats merge_insensitive_pins(TimingGraph& g,
                                  const std::vector<bool>& keep,
                                  const MergeConfig& cfg) {
  obs::Span span("macro.merge");
  MergeStats stats;
  LocalAdjacency adj(g);
  ChainMap chains;
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 10) {
    changed = false;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (n < keep.size() && keep[n]) continue;
      const Verdict v = merge_verdict(g, n, adj.has_check[n], adj.fanin[n],
                                      adj.fanout[n], chains, cfg);
      if (v == Verdict::kIllegal) continue;
      if (v == Verdict::kRefused) {
        ++stats.refused;
        continue;
      }
      const std::vector<ArcId> fin(adj.fanin[n]);
      const std::vector<ArcId> fout(adj.fanout[n]);
      const ArcId first_new = static_cast<ArcId>(g.num_arcs());
      splice_out(g, n, fin, fout, chains, /*delta=*/false);
      for (ArcId na = first_new; na < g.num_arcs(); ++na) {
        adj.fanout[g.arc(na).from].push_back(na);
        adj.fanin[g.arc(na).to].push_back(na);
      }
      stats.serial_arcs_created += g.num_arcs() - first_new;
      for (ArcId a : fin) adj.remove(adj.fanout[g.arc(a).from], a);
      for (ArcId a : fout) adj.remove(adj.fanin[g.arc(a).to], a);
      adj.fanin[n].clear();
      adj.fanout[n].clear();
      ++stats.pins_removed;
      changed = true;
    }
  }

  // Materialize every surviving chain arc in one end-to-end sampling.
  materialize_chains(g, chains, cfg, /*delta=*/false);

  stats.parallel_arcs_merged = merge_parallel_arcs(g, cfg);
  g_pins_removed.add(stats.pins_removed);
  g_serial_arcs.add(stats.serial_arcs_created);
  g_parallel_arcs.add(stats.parallel_arcs_merged);
  g_refused.add(stats.refused);
  span.set_arg("pins_removed", static_cast<double>(stats.pins_removed));
  return stats;
}

std::size_t merge_parallel_arcs(TimingGraph& g, const MergeConfig& cfg) {
  std::vector<ArcId> killed;  // stays empty: no arc precedes id 0
  return fold_parallel(g, 0, {}, cfg, /*delta=*/false, killed);
}

bool has_parallel_duplicate_arcs(const TimingGraph& g) {
  std::unordered_set<std::uint64_t> seen;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead || arc.is_launch) continue;
    if (!seen.insert(parallel_key(arc)).second) return true;
  }
  return false;
}

MergeDelta::MergeDelta(TimingGraph& g) : g_(&g) {
  // Materialize the adjacency + topological-order caches the delta_*
  // mutators patch in place.
  g.topo_order();
  graph_has_duplicates_ = has_parallel_duplicate_arcs(g);
  if (graph_has_duplicates_) return;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead || arc.is_launch) continue;
    pristine_keys_.emplace(parallel_key(arc), a);
  }
}

// The body below replays merge_insensitive_pins for a single-pin keep
// mask step by step through the same helpers — same merge verdict, same
// splice order (and thus the same arc-id allocation sequence as on a
// scratch copy), the same chain-map key/insertion sequence for chain
// materialization (hence the same iteration order and id sequence for
// non-unate second-variant arcs), and the same fold scan as
// merge_parallel_arcs, restricted to the appended id range: with no
// duplicate keys among live pristine arcs, a full scan would only
// register those, so scanning the new arcs against the pristine key
// index reproduces it exactly. That replication is what makes the
// incremental TS path bit-identical to the copy + full-merge path; the
// equivalence is enforced by the randomized harness in
// tests/test_sta_incremental.cpp.
bool MergeDelta::apply(NodeId pin, const MergeConfig& cfg) {
  if (applied_)
    throw std::logic_error("MergeDelta::apply: previous delta not undone");
  if (!applicable()) return false;
  TimingGraph& g = *g_;
  touched_.clear();
  killed_.clear();
  const std::vector<ArcId> fin(g.fanin(pin));
  const std::vector<ArcId> fout(g.fanout(pin));
  ChainMap chains;
  if (merge_verdict(g, pin, !g.checks_of(pin).empty(), fin, fout, chains,
                    cfg) != Verdict::kMerge)
    return false;
  base_arcs_ = g.num_arcs();
  base_tables_ = g.num_owned_tables();
  pin_ = pin;
  splice_out(g, pin, fin, fout, chains, /*delta=*/true);
  killed_.insert(killed_.end(), fin.begin(), fin.end());
  killed_.insert(killed_.end(), fout.begin(), fout.end());
  materialize_chains(g, chains, cfg, /*delta=*/true);
  fold_parallel(g, static_cast<ArcId>(base_arcs_), pristine_keys_, cfg,
                /*delta=*/true, killed_);
  // Every node whose fanin or fanout arc set changed: the removed pin
  // and its former neighbors (fold reps/products share those endpoints).
  touched_.push_back(pin);
  for (ArcId a : fin) touched_.push_back(g.arc(a).from);
  for (ArcId a : fout) touched_.push_back(g.arc(a).to);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  applied_ = true;
  return true;
}

void MergeDelta::undo() {
  if (!applied_) return;
  TimingGraph& g = *g_;
  g.delta_truncate(base_arcs_, base_tables_);
  for (ArcId a : killed_) g.delta_restore_arc(a);
  g.delta_set_node_dead(pin_, false);
  applied_ = false;
  pin_ = kInvalidId;
  touched_.clear();
  killed_.clear();
}

}  // namespace tmm
