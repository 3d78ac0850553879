#include "macro/compose.hpp"

#include <algorithm>
#include <span>

namespace tmm {

namespace {

/// Sentinel for transitions a unate chain cannot produce.
constexpr double kInfChain = 1e290;

/// Slew candidates used when no source arc has a slew grid of its own
/// (pure wire chains).
constexpr double kDefaultSlews[] = {1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 120.0};

/// An arc's own slew grid; empty for wires and scalar tables.
std::vector<double> slew_grid(const GraphArc& arc) {
  if (arc.kind != GraphArcKind::kCell || arc.delay == nullptr) return {};
  const auto idx = (*arc.delay)(kLate, kRise).slew_index();
  return {idx.begin(), idx.end()};
}

/// An arc's own load grid; empty unless the arc is load-dependent.
std::vector<double> load_grid(const GraphArc& arc) {
  if (!arc_load_dependent(arc)) return {};
  const auto idx = (*arc.delay)(kLate, kRise).load_index();
  return {idx.begin(), idx.end()};
}

/// The per-transition (delay, slew) tracks of a chain walk between
/// segments. The walk evaluates a chain exactly the way the analysis
/// engine evaluates the unmerged pins, with the input transition pinned
/// to the start transition: the tracks propagate through each segment's
/// unateness, worst-casing only where a genuinely non-unate segment
/// merges transitions — which is precisely the engine's recursion on a
/// linear chain. Unreached transitions end as +/-inf.
struct ChainState {
  double delay[kNumRf];
  double slew[kNumRf];
  bool active[kNumRf];
};

/// Tracks before the first segment: only `start_rf`, at slew `s`.
ChainState chain_start(unsigned el, unsigned start_rf, double s) {
  const double worst_init = el == kLate ? -1e300 : 1e300;
  ChainState st{{worst_init, worst_init}, {worst_init, worst_init},
                {false, false}};
  st.delay[start_rf] = 0.0;
  st.slew[start_rf] = s;
  st.active[start_rf] = true;
  return st;
}

/// The AOCV derate a segment's delay takes: its own depth's, unless it
/// is a wire or already baked.
double seg_derate(const ChainSeg& seg, unsigned el, const AocvConfig& aocv) {
  return seg.arc.kind == GraphArcKind::kCell && !seg.arc.baked_derate
             ? aocv.derate(el, seg.depth)
             : 1.0;
}

/// Tracks after one segment of sense `sense`. `eval(irf, orf, in_slew)`
/// is the segment's (delay, out slew) at output transition orf, driven
/// by the input track irf at slew in_slew.
template <typename Eval>
ChainState chain_step(const ChainState& in, unsigned el, ArcSense sense,
                      double derate, Eval&& eval) {
  const bool late = el == kLate;
  const double worst_init = late ? -1e300 : 1e300;
  ChainState out{{worst_init, worst_init}, {worst_init, worst_init},
                 {false, false}};
  for (unsigned irf = 0; irf < kNumRf; ++irf) {
    if (!in.active[irf]) continue;
    const unsigned mask = output_transitions(sense, irf);
    for (unsigned orf = 0; orf < kNumRf; ++orf) {
      if (!(mask & (1u << orf))) continue;
      const ArcEval e = eval(irf, orf, in.slew[irf]);
      const double cand_d = in.delay[irf] + e.delay * derate;
      if (late ? cand_d > out.delay[orf] : cand_d < out.delay[orf])
        out.delay[orf] = cand_d;
      if (late ? e.out_slew > out.slew[orf] : e.out_slew < out.slew[orf])
        out.slew[orf] = e.out_slew;
      out.active[orf] = true;
    }
  }
  return out;
}

/// The chain's delay and slew at `out_rf` once every segment ran.
ArcEval chain_result(const ChainState& st, unsigned el, unsigned out_rf) {
  if (!st.active[out_rf]) {
    const double inf = el == kLate ? -kInfChain : kInfChain;
    return {inf, inf};
  }
  return {st.delay[out_rf], st.slew[out_rf]};
}

/// Envelope update: worst-case per component in the given corner.
void envelope(unsigned el, ArcEval cand, ArcEval& acc, bool& first) {
  if (first) {
    acc = cand;
    first = false;
    return;
  }
  if (el == kLate) {
    acc.delay = std::max(acc.delay, cand.delay);
    acc.out_slew = std::max(acc.out_slew, cand.out_slew);
  } else {
    acc.delay = std::min(acc.delay, cand.delay);
    acc.out_slew = std::min(acc.out_slew, cand.out_slew);
  }
}

/// The dense sampling grids of one re-characterization: the densified
/// source grids (kDefaultSlews when there is no slew grid; no load axis,
/// i.e. one column, when the function is load-independent).
struct SampleAxes {
  std::vector<double> slew;
  std::vector<double> load;

  SampleAxes(const std::vector<double>& slews,
             const std::vector<double>& loads)
      : slew(densify_axis(slews.empty()
                              ? std::span<const double>(kDefaultSlews)
                              : std::span<const double>(slews))),
        load(densify_axis(loads)) {}

  std::size_t columns() const { return std::max<std::size_t>(1, load.size()); }
};

/// Re-characterize an exact function over `axes`: sample it row by row,
/// select joint indices and materialize the final tables.
/// `row(el, rf, slew, d, s)` writes the function's delay and slew at
/// input slew `slew` and every load column into d[0, columns) and
/// s[0, columns).
template <typename RowFn>
ComposedTables resample(const SampleAxes& axes, ArcSense sense,
                        const IndexSelectionConfig& cfg, RowFn&& row) {
  const std::vector<double>& slew_axis = axes.slew;
  const std::vector<double>& load_axis = axes.load;
  const bool twod = !load_axis.empty();
  const std::size_t ns = slew_axis.size();
  const std::size_t nl = axes.columns();

  ElRf<std::vector<double>> dsamp;
  ElRf<std::vector<double>> ssamp;
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      auto& dv = dsamp(el, rf);
      auto& sv = ssamp(el, rf);
      dv.resize(ns * nl);
      sv.resize(ns * nl);
      for (std::size_t i = 0; i < ns; ++i)
        row(el, rf, slew_axis[i], &dv[i * nl], &sv[i * nl]);
    }
  }

  // Joint slew-index selection over every corner, both surfaces, every
  // load column.
  std::vector<std::vector<double>> slew_funcs;
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      for (std::size_t j = 0; j < nl; ++j) {
        std::vector<double> fd(ns);
        std::vector<double> fs(ns);
        for (std::size_t i = 0; i < ns; ++i) {
          fd[i] = dsamp(el, rf)[i * nl + j];
          fs[i] = ssamp(el, rf)[i * nl + j];
        }
        slew_funcs.push_back(std::move(fd));
        slew_funcs.push_back(std::move(fs));
      }
    }
  }
  ComposedTables out;
  out.sense = sense;
  out.selections.push_back(select_indices(slew_axis, slew_funcs, cfg));
  const std::vector<std::size_t> sel_s = out.selections.back().positions;

  std::vector<std::size_t> sel_l;
  if (twod) {
    std::vector<std::vector<double>> load_funcs;
    for (unsigned el = 0; el < kNumEl; ++el) {
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        for (std::size_t i : sel_s) {
          std::vector<double> fd(nl);
          std::vector<double> fs(nl);
          for (std::size_t j = 0; j < nl; ++j) {
            fd[j] = dsamp(el, rf)[i * nl + j];
            fs[j] = ssamp(el, rf)[i * nl + j];
          }
          load_funcs.push_back(std::move(fd));
          load_funcs.push_back(std::move(fs));
        }
      }
    }
    out.selections.push_back(select_indices(load_axis, load_funcs, cfg));
    sel_l = out.selections.back().positions;
  }

  std::vector<double> s_idx;
  for (std::size_t i : sel_s) s_idx.push_back(slew_axis[i]);
  std::vector<double> l_idx;
  for (std::size_t j : sel_l) l_idx.push_back(load_axis[j]);

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
        out.delay(el, rf) = Lut::table2d(s_idx, l_idx, std::move(dv));
        out.out_slew(el, rf) = Lut::table2d(s_idx, l_idx, std::move(sv));
      } else if (s_idx.size() >= 2) {
        out.delay(el, rf) = Lut::table1d(s_idx, std::move(dv));
        out.out_slew(el, rf) = Lut::table1d(s_idx, std::move(sv));
      } else {
        out.delay(el, rf) = Lut::scalar(dv.empty() ? 0.0 : dv[0]);
        out.out_slew(el, rf) = Lut::scalar(sv.empty() ? 0.0 : sv[0]);
      }
    }
  }
  return out;
}

}  // namespace

ArcEval eval_arc(const GraphArc& arc, unsigned el, unsigned out_rf,
                 double in_slew, double load) {
  if (arc.kind == GraphArcKind::kWire)
    return {arc.wire_delay_ps, wire_slew(in_slew, arc.wire_delay_ps)};
  return {(*arc.delay)(el, out_rf).lookup(in_slew, load),
          (*arc.out_slew)(el, out_rf).lookup(in_slew, load)};
}

bool arc_load_dependent(const GraphArc& arc) {
  return arc.kind == GraphArcKind::kCell && arc.delay != nullptr &&
         (*arc.delay)(kLate, kRise).is_2d();
}

ArcSense compose_sense(ArcSense a, ArcSense b) {
  if (a == ArcSense::kNonUnate || b == ArcSense::kNonUnate)
    return ArcSense::kNonUnate;
  return a == b ? ArcSense::kPositiveUnate : ArcSense::kNegativeUnate;
}

ArcSense chain_sense(const Chain& chain) {
  ArcSense s = ArcSense::kPositiveUnate;
  for (const auto& seg : chain) s = compose_sense(s, seg.arc.sense);
  return s;
}

ComposedTables compose_chain(const Chain& chain, ArcSense variant,
                             const IndexSelectionConfig& cfg,
                             const AocvConfig& aocv) {
  // Slew candidates from the first segment with a grid of its own.
  std::vector<double> slews;
  for (const auto& seg : chain) {
    slews = slew_grid(seg.arc);
    if (!slews.empty()) break;
  }
  const ChainSeg& last = chain.back();
  const SampleAxes axes(slews, load_grid(last.arc));
  const std::size_t nl = axes.columns();

  // Only the last segment sees the sampled load (a load-independent one
  // keeps its static load in its one column), so the walk up to it runs
  // once per row and the last segment once per column. Its tables are
  // located on the load axis once here and on the slew axis once per
  // row: Lut::lookup is at(locate, locate), so the samples keep the
  // bits of a pointwise walk.
  const bool last_cell = last.arc.kind == GraphArcKind::kCell;
  ElRf<std::vector<Lut::Pos>> dload;
  ElRf<std::vector<Lut::Pos>> sload;
  if (last_cell) {
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        for (std::size_t j = 0; j < nl; ++j) {
          const double load = axes.load.empty() ? last.load_ff : axes.load[j];
          dload(el, rf).push_back(
              Lut::locate((*last.arc.delay)(el, rf).load_index(), load));
          sload(el, rf).push_back(
              Lut::locate((*last.arc.out_slew)(el, rf).load_index(), load));
        }
  }

  auto row = [&](unsigned el, unsigned rf, double s, double* d, double* sl) {
    const unsigned start_rf =
        variant == ArcSense::kPositiveUnate ? rf : 1u - rf;
    ChainState st = chain_start(el, start_rf, s);
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      const ChainSeg& seg = chain[k];
      st = chain_step(st, el, seg.arc.sense, seg_derate(seg, el, aocv),
                      [&](unsigned, unsigned orf, double in_slew) {
                        return eval_arc(seg.arc, el, orf, in_slew,
                                        seg.load_ff);
                      });
    }
    // Slew positions per (input track, output transition) of this row.
    Lut::Pos dpos[kNumRf][kNumRf];
    Lut::Pos spos[kNumRf][kNumRf];
    for (unsigned irf = 0; irf < kNumRf; ++irf) {
      if (!last_cell || !st.active[irf]) continue;
      for (unsigned orf = 0; orf < kNumRf; ++orf) {
        dpos[irf][orf] = Lut::locate(
            (*last.arc.delay)(el, orf).slew_index(), st.slew[irf]);
        spos[irf][orf] = Lut::locate(
            (*last.arc.out_slew)(el, orf).slew_index(), st.slew[irf]);
      }
    }
    const double derate = seg_derate(last, el, aocv);
    for (std::size_t j = 0; j < nl; ++j) {
      const ChainState end = chain_step(
          st, el, last.arc.sense, derate,
          [&](unsigned irf, unsigned orf, double in_slew) -> ArcEval {
            if (!last_cell)
              return eval_arc(last.arc, el, orf, in_slew, last.load_ff);
            return {(*last.arc.delay)(el, orf).at(dpos[irf][orf],
                                                  dload(el, orf)[j]),
                    (*last.arc.out_slew)(el, orf).at(spos[irf][orf],
                                                     sload(el, orf)[j])};
          });
      const ArcEval e = chain_result(end, el, rf);
      d[j] = e.delay;
      sl[j] = e.out_slew;
    }
  };
  return resample(axes, variant, cfg, row);
}

ComposedTables compose_parallel(const GraphArc& a, const GraphArc& b,
                                const IndexSelectionConfig& cfg,
                                const AocvConfig& aocv,
                                std::uint32_t from_depth) {
  const ArcSense sense =
      a.sense == b.sense ? a.sense : ArcSense::kNonUnate;
  auto derated = [&](const GraphArc& arc, unsigned el, unsigned orf, double s,
                     double load) {
    ArcEval e = eval_arc(arc, el, orf, s, load);
    if (arc.kind == GraphArcKind::kCell && !arc.baked_derate)
      e.delay *= aocv.derate(el, from_depth);
    return e;
  };
  std::vector<double> slews = slew_grid(a);
  if (slews.empty()) slews = slew_grid(b);
  std::vector<double> loads = load_grid(a);
  if (loads.empty()) loads = load_grid(b);
  const SampleAxes axes(slews, loads);
  auto row = [&](unsigned el, unsigned rf, double s, double* d, double* sl) {
    for (std::size_t j = 0; j < axes.columns(); ++j) {
      const double load = axes.load.empty() ? 0.0 : axes.load[j];
      ArcEval best{};
      bool first = true;
      envelope(el, derated(a, el, rf, s, load), best, first);
      envelope(el, derated(b, el, rf, s, load), best, first);
      d[j] = best.delay;
      sl[j] = best.out_slew;
    }
  };
  return resample(axes, sense, cfg, row);
}

}  // namespace tmm
