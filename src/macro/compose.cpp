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

/// Evaluate a whole chain exactly the way the analysis engine evaluates
/// the unmerged pins, with the *input transition pinned to start_rf*:
/// per-transition (delay, slew) tracks propagate through each segment's
/// unateness, worst-casing only where a genuinely non-unate segment
/// merges transitions — which is precisely the engine's recursion on a
/// linear chain. Returns delay/slew at `out_rf` for input slew `s` and
/// final load `load`; unreached transitions return +/-inf.
ArcEval eval_chain(const Chain& chain, unsigned el, unsigned out_rf,
                   unsigned start_rf, double s, double load,
                   const AocvConfig& aocv) {
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

/// Re-characterize `exact(el, rf, slew, load)`: sample it over the
/// densified grids (kDefaultSlews when `slews` is empty; one load column
/// when `loads` is empty, i.e. load-independent), select joint indices
/// and materialize the final tables.
template <typename EvalFn>
ComposedTables resample(const std::vector<double>& slews,
                        const std::vector<double>& loads, ArcSense sense,
                        const IndexSelectionConfig& cfg, EvalFn&& exact) {
  const std::vector<double> slew_axis = densify_axis(
      slews.empty() ? std::span<const double>(kDefaultSlews) : slews);
  const std::vector<double> load_axis = densify_axis(loads);
  const bool twod = !load_axis.empty();
  const std::size_t ns = slew_axis.size();
  const std::size_t nl = std::max<std::size_t>(1, load_axis.size());

  ElRf<std::vector<double>> dsamp;
  ElRf<std::vector<double>> ssamp;
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      auto& dv = dsamp(el, rf);
      auto& sv = ssamp(el, rf);
      dv.resize(ns * nl);
      sv.resize(ns * nl);
      for (std::size_t i = 0; i < ns; ++i) {
        for (std::size_t j = 0; j < nl; ++j) {
          const double load = twod ? load_axis[j] : 0.0;
          const ArcEval e = exact(el, rf, slew_axis[i], load);
          dv[i * nl + j] = e.delay;
          sv[i * nl + j] = e.out_slew;
        }
      }
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
  const auto sel_s = select_indices(slew_axis, slew_funcs, cfg);

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
    sel_l = select_indices(load_axis, load_funcs, cfg);
  }

  std::vector<double> s_idx;
  for (std::size_t i : sel_s) s_idx.push_back(slew_axis[i]);
  std::vector<double> l_idx;
  for (std::size_t j : sel_l) l_idx.push_back(load_axis[j]);

  ComposedTables out;
  out.sense = sense;
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
  auto exact = [&](unsigned el, unsigned rf, double s, double load) {
    const unsigned start_rf =
        variant == ArcSense::kPositiveUnate ? rf : 1u - rf;
    return eval_chain(chain, el, rf, start_rf, s, load, aocv);
  };
  return resample(slews, load_grid(chain.back().arc), variant, cfg, exact);
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
  auto exact = [&](unsigned el, unsigned orf, double s,
                   double load) -> ArcEval {
    ArcEval best{};
    bool first = true;
    envelope(el, derated(a, el, orf, s, load), best, first);
    envelope(el, derated(b, el, orf, s, load), best, first);
    return best;
  };
  std::vector<double> slews = slew_grid(a);
  if (slews.empty()) slews = slew_grid(b);
  std::vector<double> loads = load_grid(a);
  if (loads.empty()) loads = load_grid(b);
  return resample(slews, loads, sense, cfg, exact);
}

}  // namespace tmm
