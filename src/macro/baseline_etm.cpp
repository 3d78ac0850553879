#include <cmath>

#include "macro/baselines.hpp"
#include "sta/propagation.hpp"
#include "util/instrument.hpp"

namespace tmm {

namespace {

/// Conditions of the ports that are not being characterized.
constexpr double kNominalSlewPs = 10.0;
constexpr double kNominalLoadFf = 4.0;
constexpr double kNominalPeriodPs = 1000.0;

/// Inactive boundary seeds: -inf/late, +inf/early — nothing propagates.
void deactivate_pi(PiConstraint& p) {
  for (unsigned rf = 0; rf < kNumRf; ++rf) {
    p.at(kLate, rf) = -kInf;
    p.at(kEarly, rf) = kInf;
    p.slew(kLate, rf) = -kInf;
    p.slew(kEarly, rf) = kInf;
  }
}

void activate_pi(PiConstraint& p, double slew_ps) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      p.at(el, rf) = 0.0;
      p.slew(el, rf) = slew_ps;
    }
}

/// Seed only one input transition — characterization must keep the
/// rise- and fall-launched surfaces apart (the analysis engine applies
/// per-transition arrivals/slews at usage).
void activate_pi_rf(PiConstraint& p, double slew_ps, unsigned rf) {
  for (unsigned el = 0; el < kNumEl; ++el) {
    p.at(el, rf) = 0.0;
    p.slew(el, rf) = slew_ps;
  }
}

/// Contribute slews (context) without arrivals: slew propagation is
/// independent of arrival propagation, so this leaves single-source
/// arrival additivity intact while internal slew merging sees a
/// realistic environment.
void seed_slew_only(PiConstraint& p, double slew_ps) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) p.slew(el, rf) = slew_ps;
}

/// Characterization sample cube for one source node: value per
/// (el, rf, slew sample, load sample); NaN marks unreachable.
struct SampleCube {
  std::size_t ns = 0, nl = 0;
  ElRf<std::vector<double>> v;
  void init(std::size_t s, std::size_t l) {
    ns = s;
    nl = l;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        v(el, rf).assign(ns * nl, std::nan(""));
  }
  bool complete() const {
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        for (double x : v(el, rf))
          if (std::isnan(x)) return false;
    return true;
  }
};

ElRf<Lut> cube_to_tables(const SampleCube& cube,
                         const std::vector<double>& slew_axis,
                         const std::vector<double>& load_axis) {
  ElRf<Lut> t;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      t(el, rf) = Lut::table2d(slew_axis, load_axis, cube.v(el, rf));
  return t;
}

}  // namespace

MacroModel generate_etm_model(const TimingGraph& flat, const EtmConfig& cfg,
                              GenerationStats* stats) {
  Stopwatch sw;
  IlmResult ilmres = extract_ilm(flat);
  const TimingGraph& ilm = ilmres.graph;
  Sta sta(ilm, {.cppr = false});

  const auto& pis = ilm.primary_inputs();
  const auto& pos = ilm.primary_outputs();
  const std::size_t npi = pis.size();
  const std::size_t npo = pos.size();
  const std::size_t ns = cfg.slew_samples.size();
  const std::size_t nl = cfg.load_samples.size();

  std::uint32_t clk_ordinal = kInvalidId;
  for (std::uint32_t i = 0; i < npi; ++i)
    if (pis[i] != kInvalidId && ilm.node(pis[i]).is_clock_root)
      clk_ordinal = i;

  auto base_constraints = [&]() {
    BoundaryConstraints bc;
    bc.clock_period_ps = kNominalPeriodPs;
    bc.pi.resize(npi);
    for (auto& p : bc.pi) deactivate_pi(p);
    bc.po.resize(npo);
    for (auto& p : bc.po) {
      p.load_ff = kNominalLoadFf;
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        p.rat(kLate, rf) = kInf;    // no PO-side constraint during
        p.rat(kEarly, rf) = -kInf;  // characterization
      }
    }
    return bc;
  };

  // --- Class A/B: delay & slew cubes, one source port at a time, one
  // input transition at a time. cube[irf][src][dst] records the arrival
  // and slew surfaces seen at each PO when only `src` launches with
  // transition `irf` — these become the (sense-split) port-to-port arcs.
  std::vector<std::vector<SampleCube>> d_cube[kNumRf], s_cube[kNumRf];
  for (unsigned irf = 0; irf < kNumRf; ++irf) {
    d_cube[irf].resize(npi);
    s_cube[irf].resize(npi);
    for (std::uint32_t p = 0; p < npi; ++p) {
      d_cube[irf][p].resize(npo);
      s_cube[irf][p].resize(npo);
      for (auto& c : d_cube[irf][p]) c.init(ns, nl);
      for (auto& c : s_cube[irf][p]) c.init(ns, nl);
    }
  }
  for (std::uint32_t p = 0; p < npi; ++p) {
    if (pis[p] == kInvalidId) continue;
    for (unsigned irf = 0; irf < kNumRf; ++irf) {
      for (std::size_t si = 0; si < ns; ++si) {
        for (std::size_t li = 0; li < nl; ++li) {
          BoundaryConstraints bc = base_constraints();
          for (std::uint32_t o = 0; o < npi; ++o)
            if (o != p) seed_slew_only(bc.pi[o], kNominalSlewPs);
          activate_pi_rf(bc.pi[p], cfg.slew_samples[si], irf);
          for (auto& po : bc.po) po.load_ff = cfg.load_samples[li];
          sta.run(bc);
          for (std::uint32_t q = 0; q < npo; ++q) {
            if (pos[q] == kInvalidId) continue;
            const auto& t = sta.timing(pos[q]);
            for (unsigned el = 0; el < kNumEl; ++el)
              for (unsigned rf = 0; rf < kNumRf; ++rf) {
                if (std::isfinite(t.at(el, rf)))
                  d_cube[irf][p][q].v(el, rf)[si * nl + li] = t.at(el, rf);
                if (std::isfinite(t.slew(el, rf)))
                  s_cube[irf][p][q].v(el, rf)[si * nl + li] = t.slew(el, rf);
              }
          }
        }
      }
    }
  }

  // --- Class C: guard characterization, data-slew sweep ---------------
  // All data ports active with the same slew; the clock at nominal.
  // rel_setup[p](rf, si) = rat_late(p) - T0;  rel_hold = rat_early(p).
  std::vector<ElRf<std::vector<double>>> rel_setup(npi), rel_hold(npi);
  for (auto& r : rel_setup)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) r(el, rf).assign(ns, std::nan(""));
  for (auto& r : rel_hold)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) r(el, rf).assign(ns, std::nan(""));

  auto record_rel_for = [&](const BoundaryConstraints& bc, std::size_t si,
                            std::uint32_t only_p,
                            std::vector<ElRf<std::vector<double>>>& setup_dst,
                            std::vector<ElRf<std::vector<double>>>& hold_dst) {
    sta.run(bc);
    for (std::uint32_t p = 0; p < npi; ++p) {
      if (pis[p] == kInvalidId || p == clk_ordinal) continue;
      if (only_p != kInvalidId && p != only_p) continue;
      const auto& t = sta.timing(pis[p]);
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        if (std::isfinite(t.rat(kLate, rf)))
          setup_dst[p](kLate, rf)[si] = t.rat(kLate, rf) - bc.clock_period_ps;
        if (std::isfinite(t.rat(kEarly, rf)))
          hold_dst[p](kEarly, rf)[si] = t.rat(kEarly, rf);
      }
    }
  };

  auto all_nominal = [&]() {
    BoundaryConstraints bc = base_constraints();
    for (std::uint32_t p = 0; p < npi; ++p)
      activate_pi(bc.pi[p], kNominalSlewPs);
    return bc;
  };

  // Per-port data-slew sweep with every other port pinned at the
  // nominal slew (the context an ETM bakes in).
  for (std::uint32_t p = 0; p < npi; ++p) {
    if (pis[p] == kInvalidId || p == clk_ordinal) continue;
    for (std::size_t si = 0; si < ns; ++si) {
      BoundaryConstraints bc = all_nominal();
      activate_pi(bc.pi[p], cfg.slew_samples[si]);
      record_rel_for(bc, si, p, rel_setup, rel_hold);
    }
  }

  // Exact nominal reference for the separable combination below.
  std::vector<ElRf<std::vector<double>>> rel_nom(npi);
  for (auto& r : rel_nom)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) r(el, rf).assign(1, std::nan(""));
  record_rel_for(all_nominal(), 0, kInvalidId, rel_nom, rel_nom);

  // --- Class D: guard characterization, clock-slew sweep --------------
  std::vector<ElRf<std::vector<double>>> rel_setup_ck(npi), rel_hold_ck(npi);
  for (auto& r : rel_setup_ck)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) r(el, rf).assign(ns, std::nan(""));
  for (auto& r : rel_hold_ck)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) r(el, rf).assign(ns, std::nan(""));
  for (std::size_t si = 0; si < ns; ++si) {
    BoundaryConstraints bc = base_constraints();
    for (std::uint32_t p = 0; p < npi; ++p)
      activate_pi(bc.pi[p],
                  p == clk_ordinal ? cfg.slew_samples[si] : kNominalSlewPs);
    record_rel_for(bc, si, kInvalidId, rel_setup_ck, rel_hold_ck);
  }


  // --- Assemble the ETM graph -----------------------------------------
  MacroModel model;
  model.design_name = "etm";
  TimingGraph& g = model.graph;
  std::vector<NodeId> pi_nodes(npi, kInvalidId);
  std::vector<NodeId> po_nodes(npo, kInvalidId);
  for (std::uint32_t p = 0; p < npi; ++p) {
    if (pis[p] == kInvalidId) continue;
    GraphNode node;
    node.name = ilm.node(pis[p]).name;
    const bool is_clk = ilm.node(pis[p]).is_clock_root;
    node.in_clock_network = is_clk;
    pi_nodes[p] = g.add_node(std::move(node));
    g.set_primary_input(pi_nodes[p], p, is_clk);
  }
  for (std::uint32_t q = 0; q < npo; ++q) {
    if (pos[q] == kInvalidId) continue;
    GraphNode node;
    node.name = ilm.node(pos[q]).name;
    node.attached_po_loads.push_back(q);
    po_nodes[q] = g.add_node(std::move(node));
    g.set_primary_output(po_nodes[q], q);
  }

  // Sense-split port-to-port arcs: the surfaces measured from a rising
  // launch feed a positive-unate arc (input transition == output
  // transition reads the irf == orf cube) and the fall-launch surfaces a
  // negative-unate one, so per-transition arrivals stay separated.
  for (std::uint32_t p = 0; p < npi; ++p) {
    if (pi_nodes[p] == kInvalidId) continue;
    for (std::uint32_t q = 0; q < npo; ++q) {
      if (po_nodes[q] == kInvalidId) continue;
      for (ArcSense sense :
           {ArcSense::kPositiveUnate, ArcSense::kNegativeUnate}) {
        SampleCube dc, sc;
        dc.init(ns, nl);
        sc.init(ns, nl);
        for (unsigned el = 0; el < kNumEl; ++el)
          for (unsigned orf = 0; orf < kNumRf; ++orf) {
            const unsigned irf =
                sense == ArcSense::kPositiveUnate ? orf : 1u - orf;
            dc.v(el, orf) = d_cube[irf][p][q].v(el, orf);
            sc.v(el, orf) = s_cube[irf][p][q].v(el, orf);
          }
        if (!dc.complete() || !sc.complete()) continue;
        const ElRf<Lut>* dt = g.own_tables(
            cube_to_tables(dc, cfg.slew_samples, cfg.load_samples));
        const ElRf<Lut>* st = g.own_tables(
            cube_to_tables(sc, cfg.slew_samples, cfg.load_samples));
        const ArcId id =
            g.add_cell_arc(pi_nodes[p], po_nodes[q], sense, dt, st,
                           /*is_launch=*/p == clk_ordinal);
        g.arc(id).baked_derate = true;  // ETM bakes one fixed context
      }
    }
  }

  // Virtual check endpoints per constrained data input.
  const NodeId clk_node =
      clk_ordinal == kInvalidId ? kInvalidId : pi_nodes[clk_ordinal];
  for (std::uint32_t p = 0; p < npi; ++p) {
    if (pi_nodes[p] == kInvalidId || p == clk_ordinal || clk_node == kInvalidId)
      continue;
    auto has_any = [&](const ElRf<std::vector<double>>& r, unsigned el) {
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        for (double x : r(el, rf))
          if (!std::isnan(x)) return true;
      return false;
    };
    const bool setup_ok = has_any(rel_setup[p], kLate) &&
                          has_any(rel_setup_ck[p], kLate);
    const bool hold_ok =
        has_any(rel_hold[p], kEarly) && has_any(rel_hold_ck[p], kEarly);
    if (!setup_ok && !hold_ok) continue;

    GraphNode ep;
    ep.name = ilm.node(pis[p]).name + "__endpoint";
    ep.is_ff_data = true;
    const NodeId ep_node = g.add_node(std::move(ep));
    g.add_wire_arc(pi_nodes[p], ep_node, 0.0);

    // Separable guard g(cs, ds) = base(ds) + shift(cs) - nominal.
    auto build_guard = [&](const ElRf<std::vector<double>>& ds_rel,
                           const ElRf<std::vector<double>>& cs_rel,
                           unsigned el, double sign) {
      ElRf<Lut> guard;
      for (unsigned gel = 0; gel < kNumEl; ++gel) {
        for (unsigned rf = 0; rf < kNumRf; ++rf) {
          std::vector<double> vals(ns * ns, 0.0);
          const auto& base = ds_rel(el, rf);
          const auto& shift = cs_rel(el, rf);
          const double nom = rel_nom[p](el, rf).empty() ||
                                     std::isnan(rel_nom[p](el, rf)[0])
                                 ? 0.0
                                 : rel_nom[p](el, rf)[0];
          for (std::size_t j = 0; j < ns; ++j) {    // clock-slew row
            for (std::size_t i = 0; i < ns; ++i) {  // data-slew col
              const double b = std::isnan(base[i]) ? nom : base[i];
              const double s = std::isnan(shift[j]) ? nom : shift[j];
              vals[j * ns + i] = sign * (b + s - nom);
            }
          }
          guard(gel, rf) =
              Lut::table2d(cfg.slew_samples, cfg.slew_samples, std::move(vals));
        }
      }
      return guard;
    };
    if (setup_ok) {
      const ElRf<Lut>* guard = g.own_tables(
          build_guard(rel_setup[p], rel_setup_ck[p], kLate, -1.0));
      g.add_check(clk_node, ep_node, /*is_setup=*/true, guard);
    }
    if (hold_ok) {
      const ElRf<Lut>* guard = g.own_tables(
          build_guard(rel_hold[p], rel_hold_ck[p], kEarly, +1.0));
      g.add_check(clk_node, ep_node, /*is_setup=*/false, guard);
    }
  }

  if (stats) {
    stats->ilm_pins = ilm.num_live_nodes();
    stats->model_pins = g.num_live_nodes();
    stats->pins_kept = g.num_live_nodes();
    stats->generation_seconds = sw.seconds();
    stats->generation_peak_rss = peak_rss_bytes();
  }
  return model;
}

}  // namespace tmm
