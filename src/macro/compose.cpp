#include "macro/compose.hpp"

#include <algorithm>

namespace tmm {

namespace {

bool arc_load_dependent(const GraphArc& arc) {
  return arc.kind == GraphArcKind::kCell && arc.delay != nullptr &&
         (*arc.delay)(kLate, kRise).is_2d();
}

/// Slew candidate axis for a chain starting with `a`; prefer the first
/// arc's own grid, fall back to the second, then to the default.
std::vector<double> slew_axis_for(const GraphArc& a, const GraphArc& b) {
  auto grid_of = [](const GraphArc& arc) -> std::vector<double> {
    if (arc.kind != GraphArcKind::kCell || arc.delay == nullptr) return {};
    auto idx = (*arc.delay)(kLate, kRise).slew_index();
    return {idx.begin(), idx.end()};
  };
  auto g = grid_of(a);
  if (g.empty()) g = grid_of(b);
  if (g.empty()) g = default_slew_axis();
  return g;
}

std::vector<double> load_axis_for(const GraphArc& b) {
  if (!arc_load_dependent(b)) return {};
  auto idx = (*b.delay)(kLate, kRise).load_index();
  return {idx.begin(), idx.end()};
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

/// Dense samples of a composite function over (slew x load) candidates
/// for all four corners; nl == 1 when load-independent.
struct DenseSamples {
  std::vector<double> slew_axis;
  std::vector<double> load_axis;  // empty => load-independent
  ElRf<std::vector<double>> delay;
  ElRf<std::vector<double>> slew;
};

template <typename EvalFn>
DenseSamples sample(std::vector<double> slew_axis,
                    std::vector<double> load_axis, EvalFn&& exact) {
  DenseSamples out;
  out.slew_axis = std::move(slew_axis);
  out.load_axis = std::move(load_axis);
  const std::size_t ns = out.slew_axis.size();
  const std::size_t nl = std::max<std::size_t>(1, out.load_axis.size());
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      auto& dv = out.delay(el, rf);
      auto& sv = out.slew(el, rf);
      dv.resize(ns * nl);
      sv.resize(ns * nl);
      for (std::size_t i = 0; i < ns; ++i) {
        for (std::size_t j = 0; j < nl; ++j) {
          const double load = out.load_axis.empty() ? 0.0 : out.load_axis[j];
          const ArcEval e = exact(el, rf, out.slew_axis[i], load);
          dv[i * nl + j] = e.delay;
          sv[i * nl + j] = e.out_slew;
        }
      }
    }
  }
  return out;
}

/// Select joint indices and materialize the final tables.
ComposedTables reindex(const DenseSamples& dense, ArcSense sense,
                       const IndexSelectionConfig& cfg) {
  ComposedTables out;
  out.sense = sense;
  out.load_dependent = !dense.load_axis.empty();
  const std::size_t ns = dense.slew_axis.size();
  const std::size_t nl = std::max<std::size_t>(1, dense.load_axis.size());

  // Joint slew-index selection over every corner, both surfaces, every
  // load column.
  std::vector<std::vector<double>> slew_funcs;
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      for (std::size_t j = 0; j < nl; ++j) {
        std::vector<double> fd(ns);
        std::vector<double> fs(ns);
        for (std::size_t i = 0; i < ns; ++i) {
          fd[i] = dense.delay(el, rf)[i * nl + j];
          fs[i] = dense.slew(el, rf)[i * nl + j];
        }
        slew_funcs.push_back(std::move(fd));
        slew_funcs.push_back(std::move(fs));
      }
    }
  }
  const auto sel_s = select_indices(dense.slew_axis, slew_funcs, cfg);

  std::vector<std::size_t> sel_l;
  if (out.load_dependent) {
    std::vector<std::vector<double>> load_funcs;
    for (unsigned el = 0; el < kNumEl; ++el) {
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        for (std::size_t i : sel_s) {
          std::vector<double> fd(nl);
          std::vector<double> fs(nl);
          for (std::size_t j = 0; j < nl; ++j) {
            fd[j] = dense.delay(el, rf)[i * nl + j];
            fs[j] = dense.slew(el, rf)[i * nl + j];
          }
          load_funcs.push_back(std::move(fd));
          load_funcs.push_back(std::move(fs));
        }
      }
    }
    sel_l = select_indices(dense.load_axis, load_funcs, cfg);
  }

  std::vector<double> s_idx;
  for (std::size_t i : sel_s) s_idx.push_back(dense.slew_axis[i]);
  std::vector<double> l_idx;
  for (std::size_t j : sel_l) l_idx.push_back(dense.load_axis[j]);

  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      std::vector<double> dv;
      std::vector<double> sv;
      for (std::size_t i : sel_s) {
        if (out.load_dependent) {
          for (std::size_t j : sel_l) {
            dv.push_back(dense.delay(el, rf)[i * nl + j]);
            sv.push_back(dense.slew(el, rf)[i * nl + j]);
          }
        } else {
          dv.push_back(dense.delay(el, rf)[i * nl]);
          sv.push_back(dense.slew(el, rf)[i * nl]);
        }
      }
      if (out.load_dependent && s_idx.size() >= 2 && l_idx.size() >= 2) {
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

ArcSense compose_sense(ArcSense a, ArcSense b) {
  if (a == ArcSense::kNonUnate || b == ArcSense::kNonUnate)
    return ArcSense::kNonUnate;
  return a == b ? ArcSense::kPositiveUnate : ArcSense::kNegativeUnate;
}

std::vector<double> default_slew_axis() {
  return {1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 120.0};
}

ComposedTables compose_parallel(const TimingGraph& /*g*/, const GraphArc& a,
                                const GraphArc& b, double /*sink_load_ff*/,
                                const IndexSelectionConfig& cfg,
                                const AocvConfig& aocv,
                                std::uint32_t from_depth) {
  const ArcSense sense =
      a.sense == b.sense ? a.sense : ArcSense::kNonUnate;
  const bool twod = arc_load_dependent(a) || arc_load_dependent(b);
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
  std::vector<double> load_axis;
  if (twod) {
    load_axis = load_axis_for(arc_load_dependent(a) ? a : b);
    if (load_axis.empty()) load_axis = {0.5, 2.0, 8.0, 32.0};
  }
  const auto dense = sample(densify_axis(slew_axis_for(a, b)),
                            densify_axis(load_axis), exact);
  return reindex(dense, sense, cfg);
}

}  // namespace tmm
