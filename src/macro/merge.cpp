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

/// One primitive segment of a merged chain. `load_ff` is the statically
/// folded load the segment's lookup uses; the *last* load-dependent
/// segment of a chain uses the caller-provided load instead. `depth` is
/// the from-pin's AOCV stage depth (for baking depth derates).
struct ChainSeg {
  GraphArc arc;    // value copy of the primitive arc (tables by pointer)
  double load_ff;  // static load at arc.to, captured at merge time
  std::uint32_t depth = 0;
};

using Chain = std::vector<ChainSeg>;

/// Sentinel for transitions a unate chain cannot produce.
constexpr double kInfChain = 1e290;

bool arc_load_dependent(const GraphArc& arc) {
  return arc.kind == GraphArcKind::kCell && arc.delay != nullptr &&
         (*arc.delay)(kLate, kRise).is_2d();
}

/// Evaluate a whole chain exactly the way the analysis engine evaluates
/// the unmerged pins, with the *input transition pinned to start_rf*:
/// per-transition (delay, slew) tracks propagate through each segment's
/// unateness, worst-casing only where a genuinely non-unate segment
/// merges transitions — which is precisely the engine's recursion on a
/// linear chain. Returns delay/slew at `out_rf` for input slew `s` and
/// final load `load`; unreached transitions return +/-inf.
ArcEval eval_chain(const Chain& chain, unsigned el, unsigned out_rf,
                   unsigned start_rf, double s, double load,
                   const AocvConfig& aocv = {}) {
  const bool late = el == kLate;
  const double worst_init = late ? -1e300 : 1e300;
  double delay[kNumRf] = {worst_init, worst_init};
  double slew[kNumRf] = {worst_init, worst_init};
  bool active[kNumRf] = {false, false};
  delay[start_rf] = 0.0;
  slew[start_rf] = s;
  active[start_rf] = true;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const ChainSeg& seg = chain[i];
    const bool last = i + 1 == chain.size();
    const double seg_load =
        last && arc_load_dependent(seg.arc) ? load : seg.load_ff;
    const double derate = seg.arc.kind == GraphArcKind::kCell &&
                                  !seg.arc.baked_derate
                              ? aocv.derate(el, seg.depth)
                              : 1.0;
    double nd[kNumRf] = {worst_init, worst_init};
    double nsw[kNumRf] = {worst_init, worst_init};
    bool nactive[kNumRf] = {false, false};
    for (unsigned irf = 0; irf < kNumRf; ++irf) {
      if (!active[irf]) continue;
      const unsigned mask = output_transitions(seg.arc.sense, irf);
      for (unsigned orf = 0; orf < kNumRf; ++orf) {
        if (!(mask & (1u << orf))) continue;
        const ArcEval e = eval_arc(seg.arc, el, orf, slew[irf], seg_load);
        const double cand_d = delay[irf] + e.delay * derate;
        if (late ? cand_d > nd[orf] : cand_d < nd[orf]) nd[orf] = cand_d;
        if (late ? e.out_slew > nsw[orf] : e.out_slew < nsw[orf])
          nsw[orf] = e.out_slew;
        nactive[orf] = true;
      }
    }
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      delay[rf] = nd[rf];
      slew[rf] = nsw[rf];
      active[rf] = nactive[rf];
    }
  }
  if (!active[out_rf]) {
    const double inf = late ? -kInfChain : kInfChain;
    return {inf, inf};
  }
  return {delay[out_rf], slew[out_rf]};
}

ArcSense chain_sense(const Chain& chain) {
  ArcSense s = ArcSense::kPositiveUnate;
  for (const auto& seg : chain) s = compose_sense(s, seg.arc.sense);
  return s;
}

/// Slew candidate axis for a chain: the first cell segment's grid.
std::vector<double> chain_slew_axis(const Chain& chain) {
  for (const auto& seg : chain) {
    if (seg.arc.kind == GraphArcKind::kCell && seg.arc.delay != nullptr) {
      auto idx = (*seg.arc.delay)(kLate, kRise).slew_index();
      if (!idx.empty()) return {idx.begin(), idx.end()};
    }
  }
  return default_slew_axis();
}

/// Build tables for one sense variant of a chain. The start transition
/// of each (el, orf) surface is pinned by the variant: positive-unate
/// reads input transition == orf, negative-unate the opposite — so at
/// analysis time the engine applies exactly the per-transition delays
/// the unmerged chain would have produced.
void build_chain_tables(const Chain& chain, ArcSense variant,
                        const IndexSelectionConfig& cfg,
                        const AocvConfig& aocv, ElRf<Lut>& delay,
                        ElRf<Lut>& out_slew) {
  const bool twod = arc_load_dependent(chain.back().arc);
  const std::vector<double> s_cands = densify_axis(chain_slew_axis(chain));
  std::vector<double> l_cands;
  if (twod) {
    auto idx = (*chain.back().arc.delay)(kLate, kRise).load_index();
    l_cands = densify_axis(std::vector<double>(idx.begin(), idx.end()));
  }
  const std::size_t ns = s_cands.size();
  const std::size_t nl = std::max<std::size_t>(1, l_cands.size());

  ElRf<std::vector<double>> dsamp;
  ElRf<std::vector<double>> ssamp;
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      const unsigned start_rf =
          variant == ArcSense::kPositiveUnate ? rf : 1u - rf;
      dsamp(el, rf).resize(ns * nl);
      ssamp(el, rf).resize(ns * nl);
      for (std::size_t i = 0; i < ns; ++i) {
        for (std::size_t j = 0; j < nl; ++j) {
          const double load = l_cands.empty() ? 0.0 : l_cands[j];
          const ArcEval e =
              eval_chain(chain, el, rf, start_rf, s_cands[i], load, aocv);
          dsamp(el, rf)[i * nl + j] = e.delay;
          ssamp(el, rf)[i * nl + j] = e.out_slew;
        }
      }
    }
  }

  // Joint index selection across corners, surfaces and load columns.
  std::vector<std::vector<double>> s_funcs;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      for (std::size_t j = 0; j < nl; ++j) {
        std::vector<double> fd(ns);
        std::vector<double> fs(ns);
        for (std::size_t i = 0; i < ns; ++i) {
          fd[i] = dsamp(el, rf)[i * nl + j];
          fs[i] = ssamp(el, rf)[i * nl + j];
        }
        s_funcs.push_back(std::move(fd));
        s_funcs.push_back(std::move(fs));
      }
  const auto sel_s = select_indices(s_cands, s_funcs, cfg);

  std::vector<std::size_t> sel_l;
  if (twod) {
    std::vector<std::vector<double>> l_funcs;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        for (std::size_t i : sel_s) {
          std::vector<double> fd(nl);
          std::vector<double> fs(nl);
          for (std::size_t j = 0; j < nl; ++j) {
            fd[j] = dsamp(el, rf)[i * nl + j];
            fs[j] = ssamp(el, rf)[i * nl + j];
          }
          l_funcs.push_back(std::move(fd));
          l_funcs.push_back(std::move(fs));
        }
    sel_l = select_indices(l_cands, l_funcs, cfg);
  }

  std::vector<double> s_idx;
  for (std::size_t i : sel_s) s_idx.push_back(s_cands[i]);
  std::vector<double> l_idx;
  for (std::size_t j : sel_l) l_idx.push_back(l_cands[j]);

  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      std::vector<double> dv;
      std::vector<double> sv;
      for (std::size_t i : sel_s) {
        if (twod) {
          for (std::size_t j : sel_l) {
            dv.push_back(dsamp(el, rf)[i * nl + j]);
            sv.push_back(ssamp(el, rf)[i * nl + j]);
          }
        } else {
          dv.push_back(dsamp(el, rf)[i * nl]);
          sv.push_back(ssamp(el, rf)[i * nl]);
        }
      }
      if (twod && s_idx.size() >= 2 && l_idx.size() >= 2) {
        delay(el, rf) = Lut::table2d(s_idx, l_idx, std::move(dv));
        out_slew(el, rf) = Lut::table2d(s_idx, l_idx, std::move(sv));
      } else if (s_idx.size() >= 2) {
        delay(el, rf) = Lut::table1d(s_idx, std::move(dv));
        out_slew(el, rf) = Lut::table1d(s_idx, std::move(sv));
      } else {
        delay(el, rf) = Lut::scalar(dv.empty() ? 0.0 : dv[0]);
        out_slew(el, rf) = Lut::scalar(sv.empty() ? 0.0 : sv[0]);
      }
    }
  }
}

/// Materialize a chain onto graph arc `id`. Unate chains need one arc;
/// non-unate chains split into a positive- and a negative-unate variant
/// so each input transition keeps its own delay surface. With `delta`,
/// the variant arc is appended through the cache-preserving delta API
/// (MergeDelta); the resulting graph is identical either way.
void materialize_chain(TimingGraph& g, ArcId id, const Chain& chain,
                       const IndexSelectionConfig& cfg,
                       const AocvConfig& aocv, bool delta = false) {
  const ArcSense sense = chain_sense(chain);
  const ArcSense first =
      sense == ArcSense::kNegativeUnate ? ArcSense::kNegativeUnate
                                        : ArcSense::kPositiveUnate;
  {
    ElRf<Lut> delay;
    ElRf<Lut> out_slew;
    build_chain_tables(chain, first, cfg, aocv, delay, out_slew);
    GraphArc& arc = g.arc(id);
    arc.delay = g.own_tables(std::move(delay));
    arc.out_slew = g.own_tables(std::move(out_slew));
    arc.kind = GraphArcKind::kCell;
    arc.sense = first;
    arc.baked_derate = true;
  }
  if (sense == ArcSense::kNonUnate) {
    ElRf<Lut> delay;
    ElRf<Lut> out_slew;
    build_chain_tables(chain, ArcSense::kNegativeUnate, cfg, aocv, delay,
                       out_slew);
    const GraphArc arc = g.arc(id);
    const ElRf<Lut>* dt = g.own_tables(std::move(delay));
    const ElRf<Lut>* st = g.own_tables(std::move(out_slew));
    const ArcId neg =
        delta ? g.delta_add_cell_arc(arc.from, arc.to,
                                     ArcSense::kNegativeUnate, dt, st, false)
              : g.add_cell_arc(arc.from, arc.to, ArcSense::kNegativeUnate, dt,
                               st, false);
    g.arc(neg).baked_derate = true;
  }
}

}  // namespace

namespace size_model {

/// Approximate serialized-storage cost of an arc, in doubles.
std::size_t arc_cost(const TimingGraph& g, ArcId a,
                     const std::unordered_map<ArcId, Chain>& chains,
                     std::size_t max_points);

/// Cost a chain will have once materialized.
std::size_t chain_cost(const Chain& chain, std::size_t max_points) {
  const std::size_t mp = std::max<std::size_t>(2, max_points);
  const bool twod = arc_load_dependent(chain.back().arc);
  const std::size_t per_surface = twod ? (mp + mp + mp * mp) : (mp + mp);
  const std::size_t cost = 8 * per_surface;  // delay+slew x el x rf
  // Non-unate chains materialize as two sense-split arcs.
  return chain_sense(chain) == ArcSense::kNonUnate ? 2 * cost : cost;
}

std::size_t arc_cost(const TimingGraph& g, ArcId a,
                     const std::unordered_map<ArcId, Chain>& chains,
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

}  // namespace size_model

bool mergeable(const TimingGraph& g, NodeId n, const MergeConfig& cfg) {
  if (!mergeable_static(g, n)) return false;
  if (!g.checks_of(n).empty()) return false;
  const auto fi = g.fanin(n).size();
  const auto fo = g.fanout(n).size();
  if (fi == 0 || fo == 0) return true;  // dangling: droppable
  if (cfg.single_fanin_only && fi > 1) return false;
  if (fi * fo > cfg.max_fan_product) return false;
  for (ArcId a : g.fanin(n))
    if (g.arc(a).is_launch) return false;
  for (ArcId a : g.fanout(n))
    if (g.arc(a).is_launch) return false;
  return true;
}

MergeStats merge_insensitive_pins(TimingGraph& g,
                                  const std::vector<bool>& keep,
                                  const MergeConfig& cfg) {
  obs::Span span("macro.merge");
  MergeStats stats;
  LocalAdjacency adj(g);
  // Chains backing arcs created during this merge; primitive arcs have
  // no entry. Keyed by arc id.
  std::unordered_map<ArcId, Chain> chains;

  auto chain_of = [&](ArcId a) -> Chain {
    auto it = chains.find(a);
    if (it != chains.end()) return it->second;
    const GraphArc& arc = g.arc(a);
    return Chain{{arc, g.node(arc.to).static_load_ff,
                  g.node(arc.from).aocv_depth}};
  };

  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 10) {
    changed = false;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (n < keep.size() && keep[n]) continue;
      if (!mergeable_static(g, n) || adj.has_check[n]) continue;
      const auto& fin = adj.fanin[n];
      const auto& fout = adj.fanout[n];
      const bool dangling = fin.empty() || fout.empty();
      if (!dangling) {
        if ((cfg.single_fanin_only && fin.size() > 1) ||
            fin.size() * fout.size() > cfg.max_fan_product) {
          ++stats.refused;
          continue;
        }
        bool launch_adjacent = false;
        for (ArcId a : fin)
          if (g.arc(a).is_launch) launch_adjacent = true;
        for (ArcId a : fout)
          if (g.arc(a).is_launch) launch_adjacent = true;
        if (launch_adjacent) {
          ++stats.refused;
          continue;
        }
        // Removing the pin must not grow the model: compare the storage
        // of the incident arcs against the spliced chain arcs (merging a
        // high-fanout pin would duplicate its fanin surface per sink).
        {
          std::size_t before = 24;  // node record itself
          for (ArcId a : fin)
            before += size_model::arc_cost(g, a, chains,
                                           cfg.index.max_points);
          for (ArcId a : fout)
            before +=
                size_model::arc_cost(g, a, chains, cfg.index.max_points);
          std::size_t after = 0;
          for (ArcId ia : fin) {
            for (ArcId oa : fout) {
              Chain probe = chain_of(ia);
              const Chain tail = chain_of(oa);
              probe.insert(probe.end(), tail.begin(), tail.end());
              after += size_model::chain_cost(probe, cfg.index.max_points);
            }
          }
          if (after > before) {
            ++stats.refused;
            continue;
          }
        }
        // Splice chain arcs for every (in, out) pair; tables are
        // materialized once, after all merging settles.
        const std::vector<ArcId> ins(fin);
        const std::vector<ArcId> outs(fout);
        for (ArcId ia : ins) {
          for (ArcId oa : outs) {
            const NodeId from = g.arc(ia).from;
            const NodeId to = g.arc(oa).to;
            Chain merged = chain_of(ia);
            const Chain tail = chain_of(oa);
            merged.insert(merged.end(), tail.begin(), tail.end());
            const ArcId na =
                g.add_cell_arc(from, to, chain_sense(merged), nullptr,
                               nullptr, /*is_launch=*/false);
            chains.emplace(na, std::move(merged));
            adj.fanin.resize(g.num_nodes());
            adj.fanout.resize(g.num_nodes());
            adj.fanout[from].push_back(na);
            adj.fanin[to].push_back(na);
            ++stats.serial_arcs_created;
          }
        }
      }
      const std::vector<ArcId> ins(adj.fanin[n]);
      const std::vector<ArcId> outs(adj.fanout[n]);
      for (ArcId a : ins) {
        adj.remove(adj.fanout[g.arc(a).from], a);
        g.kill_arc(a);
        chains.erase(a);
      }
      for (ArcId a : outs) {
        adj.remove(adj.fanin[g.arc(a).to], a);
        g.kill_arc(a);
        chains.erase(a);
      }
      adj.fanin[n].clear();
      adj.fanout[n].clear();
      g.node(n).dead = true;
      ++stats.pins_removed;
      changed = true;
    }
  }

  // Materialize every surviving chain arc in one end-to-end sampling.
  for (auto& [id, chain] : chains) {
    if (g.arc(id).dead) continue;
    materialize_chain(g, id, chain, cfg.index, cfg.aocv);
  }

  stats.parallel_arcs_merged = merge_parallel_arcs(g, cfg);
  g_pins_removed.add(stats.pins_removed);
  g_serial_arcs.add(stats.serial_arcs_created);
  g_parallel_arcs.add(stats.parallel_arcs_merged);
  g_refused.add(stats.refused);
  span.set_arg("pins_removed", static_cast<double>(stats.pins_removed));
  return stats;
}

std::size_t merge_parallel_arcs(TimingGraph& g, const MergeConfig& cfg) {
  std::unordered_map<std::uint64_t, ArcId> first_arc;
  std::size_t merged = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc arc = g.arc(a);
    if (arc.dead || arc.is_launch) continue;
    const std::uint64_t key = parallel_key(arc);
    auto [it, inserted] = first_arc.emplace(key, a);
    if (inserted || it->second == a) continue;
    // Fold this arc into the representative by worst-case envelope.
    const GraphArc rep = g.arc(it->second);
    ComposedTables ct = compose_parallel(
        g, rep, arc, g.node(arc.to).static_load_ff, cfg.index, cfg.aocv,
        g.node(arc.from).aocv_depth);
    const ElRf<Lut>* dt = g.own_tables(std::move(ct.delay));
    const ElRf<Lut>* st = g.own_tables(std::move(ct.out_slew));
    g.kill_arc(it->second);
    g.kill_arc(a);
    const ArcId na =
        g.add_cell_arc(arc.from, arc.to, ct.sense, dt, st, false);
    g.arc(na).baked_derate =
        cfg.aocv.enabled || rep.baked_derate || arc.baked_derate;
    it->second = na;
    ++merged;
  }
  return merged;
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
// mask step by step — same refusal rules, same splice order (and thus
// the same arc-id allocation sequence as on a scratch copy), the same
// unordered_map key/insertion sequence for chain materialization (hence
// the same iteration order and id sequence for non-unate second-variant
// arcs), and a fold-for-fold replay of the merge_parallel_arcs scan.
// That replication is what makes the incremental TS path bit-identical
// to the copy + full-merge path; the equivalence is enforced by the
// randomized harness in tests/test_sta_incremental.cpp.
bool MergeDelta::apply(NodeId pin, const MergeConfig& cfg) {
  if (applied_)
    throw std::logic_error("MergeDelta::apply: previous delta not undone");
  if (!applicable()) return false;
  TimingGraph& g = *g_;
  touched_.clear();
  killed_.clear();
  if (!mergeable_static(g, pin) || !g.checks_of(pin).empty()) return false;
  const std::vector<ArcId> fin(g.fanin(pin));
  const std::vector<ArcId> fout(g.fanout(pin));
  const bool dangling = fin.empty() || fout.empty();
  std::unordered_map<ArcId, Chain> chains;
  auto chain_of = [&](ArcId a) -> Chain {
    auto it = chains.find(a);
    if (it != chains.end()) return it->second;
    const GraphArc& arc = g.arc(a);
    return Chain{{arc, g.node(arc.to).static_load_ff,
                  g.node(arc.from).aocv_depth}};
  };
  if (!dangling) {
    if ((cfg.single_fanin_only && fin.size() > 1) ||
        fin.size() * fout.size() > cfg.max_fan_product)
      return false;
    for (ArcId a : fin)
      if (g.arc(a).is_launch) return false;
    for (ArcId a : fout)
      if (g.arc(a).is_launch) return false;
    std::size_t before = 24;  // node record itself
    for (ArcId a : fin)
      before += size_model::arc_cost(g, a, chains, cfg.index.max_points);
    for (ArcId a : fout)
      before += size_model::arc_cost(g, a, chains, cfg.index.max_points);
    std::size_t after = 0;
    for (ArcId ia : fin) {
      for (ArcId oa : fout) {
        Chain probe = chain_of(ia);
        const Chain tail = chain_of(oa);
        probe.insert(probe.end(), tail.begin(), tail.end());
        after += size_model::chain_cost(probe, cfg.index.max_points);
      }
    }
    if (after > before) return false;
  }
  base_arcs_ = g.num_arcs();
  base_tables_ = g.num_owned_tables();
  pin_ = pin;
  if (!dangling) {
    for (ArcId ia : fin) {
      for (ArcId oa : fout) {
        const NodeId from = g.arc(ia).from;
        const NodeId to = g.arc(oa).to;
        Chain merged = chain_of(ia);
        const Chain tail = chain_of(oa);
        merged.insert(merged.end(), tail.begin(), tail.end());
        const ArcId na = g.delta_add_cell_arc(from, to, chain_sense(merged),
                                              nullptr, nullptr,
                                              /*is_launch=*/false);
        chains.emplace(na, std::move(merged));
      }
    }
  }
  for (ArcId a : fin) {
    g.delta_kill_arc(a);
    killed_.push_back(a);
  }
  for (ArcId a : fout) {
    g.delta_kill_arc(a);
    killed_.push_back(a);
  }
  g.delta_set_node_dead(pin, true);
  for (auto& [id, chain] : chains) {
    if (g.arc(id).dead) continue;
    materialize_chain(g, id, chain, cfg.index, cfg.aocv, /*delta=*/true);
  }
  // Parallel folding restricted to the appended id range: with no
  // duplicate keys among live pristine arcs, a full merge_parallel_arcs
  // scan would only register those, so replaying the scan over the new
  // arcs against the pristine key index reproduces it exactly.
  std::unordered_map<std::uint64_t, ArcId> local;
  auto rep_for = [&](std::uint64_t key) -> ArcId {
    auto it = local.find(key);
    if (it != local.end()) return it->second;
    auto pt = pristine_keys_.find(key);
    if (pt != pristine_keys_.end() && !g.arc(pt->second).dead)
      return pt->second;
    return kInvalidId;
  };
  for (ArcId a = static_cast<ArcId>(base_arcs_); a < g.num_arcs(); ++a) {
    const GraphArc arc = g.arc(a);
    if (arc.dead || arc.is_launch) continue;
    const std::uint64_t key = parallel_key(arc);
    const ArcId repid = rep_for(key);
    if (repid == kInvalidId || repid == a) {
      local.emplace(key, a);
      continue;
    }
    const GraphArc rep = g.arc(repid);
    ComposedTables ct = compose_parallel(
        g, rep, arc, g.node(arc.to).static_load_ff, cfg.index, cfg.aocv,
        g.node(arc.from).aocv_depth);
    const ElRf<Lut>* dt = g.own_tables(std::move(ct.delay));
    const ElRf<Lut>* st = g.own_tables(std::move(ct.out_slew));
    g.delta_kill_arc(repid);
    if (repid < base_arcs_) killed_.push_back(repid);
    g.delta_kill_arc(a);
    const ArcId na =
        g.delta_add_cell_arc(arc.from, arc.to, ct.sense, dt, st, false);
    g.arc(na).baked_derate =
        cfg.aocv.enabled || rep.baked_derate || arc.baked_derate;
    local[key] = na;
  }
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
