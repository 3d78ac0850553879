#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "macro/compose.hpp"
#include "macro/index_selection.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace tmm {
namespace {

TEST(ComposeSense, Algebra) {
  using S = ArcSense;
  EXPECT_EQ(compose_sense(S::kPositiveUnate, S::kPositiveUnate),
            S::kPositiveUnate);
  EXPECT_EQ(compose_sense(S::kPositiveUnate, S::kNegativeUnate),
            S::kNegativeUnate);
  EXPECT_EQ(compose_sense(S::kNegativeUnate, S::kNegativeUnate),
            S::kPositiveUnate);
  EXPECT_EQ(compose_sense(S::kNonUnate, S::kPositiveUnate), S::kNonUnate);
  EXPECT_EQ(compose_sense(S::kNegativeUnate, S::kNonUnate), S::kNonUnate);
}

TEST(EvalArc, WireArcSemantics) {
  GraphArc a;
  a.kind = GraphArcKind::kWire;
  a.wire_delay_ps = 3.0;
  const ArcEval e = eval_arc(a, kLate, kRise, 10.0, 99.0);
  EXPECT_DOUBLE_EQ(e.delay, 3.0);
  EXPECT_DOUBLE_EQ(e.out_slew, wire_slew(10.0, 3.0));
}

TEST(ComposeParallel, TakesWorstCaseEnvelope) {
  const Library& lib = test::shared_library();
  const ArcSpec& fast = lib.cell(lib.cell_id("BUF_X4")).arcs[0];
  const ArcSpec& slow = lib.cell(lib.cell_id("BUF_X1")).arcs[0];
  GraphArc a;
  a.kind = GraphArcKind::kCell;
  a.sense = fast.sense;
  a.delay = &fast.delay;
  a.out_slew = &fast.out_slew;
  GraphArc b = a;
  b.delay = &slow.delay;
  b.out_slew = &slow.out_slew;
  const ComposedTables ct = compose_parallel(a, b, {});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double s = rng.uniform(1.0, 100.0);
    const double c = rng.uniform(0.5, 30.0);
    const double late_a = fast.delay(kLate, kRise).lookup(s, c);
    const double late_b = slow.delay(kLate, kRise).lookup(s, c);
    EXPECT_NEAR(ct.delay(kLate, kRise).lookup(s, c),
                std::max(late_a, late_b), 0.5);
    const double early_a = fast.delay(kEarly, kRise).lookup(s, c);
    const double early_b = slow.delay(kEarly, kRise).lookup(s, c);
    EXPECT_NEAR(ct.delay(kEarly, kRise).lookup(s, c),
                std::min(early_a, early_b), 0.5);
  }
}

// ---------------------------------------------------------- selection

TEST(IndexSelection, KeepsEndpoints) {
  const std::vector<double> xs{0, 1, 2, 3, 4};
  const std::vector<std::vector<double>> fs{{0, 1, 2, 3, 4}};
  const auto sel = select_indices(xs, fs, {.max_points = 3}).positions;
  ASSERT_GE(sel.size(), 2u);
  EXPECT_EQ(sel.front(), 0u);
  EXPECT_EQ(sel.back(), 4u);
}

TEST(IndexSelection, LinearFunctionNeedsOnlyEndpoints) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 1.0);
  }
  const std::vector<std::vector<double>> fs{ys};
  const auto sel = select_indices(xs, fs, {.max_points = 7}).positions;
  EXPECT_EQ(sel.size(), 2u);  // tolerance met immediately
}

TEST(IndexSelection, PicksTheKink) {
  // Piecewise-linear with a kink at x=5: the third point must be there.
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back(i <= 5 ? static_cast<double>(i) : 5.0 + 3.0 * (i - 5));
  }
  const std::vector<std::vector<double>> fs{ys};
  const auto sel = select_indices(xs, fs, {.max_points = 3}).positions;
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[1], 5u);
  EXPECT_LT(interpolation_error(xs, ys, sel), 1e-12);
}

TEST(IndexSelection, MorePointsNeverWorse) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 40; ++i) {
    xs.push_back(i * 0.25);
    ys.push_back(std::sqrt(1.0 + xs.back()) * 10.0);
  }
  const std::vector<std::vector<double>> fs{ys};
  double prev = 1e18;
  for (std::size_t k = 2; k <= 8; ++k) {
    const auto sel =
        select_indices(xs, fs, {.max_points = k, .tolerance_ps = 0}).positions;
    const double err = interpolation_error(xs, ys, sel);
    EXPECT_LE(err, prev + 1e-12);
    prev = err;
  }
  EXPECT_LT(prev, 0.25);
}

TEST(IndexSelection, JointSelectionCoversAllFunctions) {
  std::vector<double> xs;
  for (int i = 0; i <= 10; ++i) xs.push_back(i);
  std::vector<double> f1(11), f2(11);
  for (int i = 0; i <= 10; ++i) {
    f1[i] = i <= 3 ? i : 3.0 + 2.0 * (i - 3);   // kink at 3
    f2[i] = i <= 7 ? i : 7.0 + 4.0 * (i - 7);   // kink at 7
  }
  const std::vector<std::vector<double>> fs{f1, f2};
  const auto sel =
      select_indices(xs, fs, {.max_points = 4, .tolerance_ps = 0}).positions;
  EXPECT_LT(interpolation_error(xs, f1, sel), 1e-12);
  EXPECT_LT(interpolation_error(xs, f2, sel), 1e-12);
}

// The greedy selection as a full rescan: every round recomputes every
// unselected candidate's error for every function (enclosing segment by
// binary search), then one sweep over every function measures the
// residual. select_indices must give the same positions and the same
// residual bits.
double rescan_point_error(std::span<const double> xs,
                          std::span<const double> func,
                          std::span<const std::size_t> sel, std::size_t i) {
  auto it = std::upper_bound(sel.begin(), sel.end(), i);
  if (it == sel.begin() || it == sel.end()) return 0.0;
  const std::size_t hi = *it;
  const std::size_t lo = *(it - 1);
  if (lo == i || hi == i) return 0.0;
  const double t = (xs[i] - xs[lo]) / (xs[hi] - xs[lo]);
  const double approx = func[lo] + t * (func[hi] - func[lo]);
  return std::fabs(approx - func[i]);
}

IndexSelection rescan_select(const std::vector<double>& xs,
                             const std::vector<std::vector<double>>& funcs,
                             const IndexSelectionConfig& cfg) {
  const std::size_t n = xs.size();
  IndexSelection out;
  std::vector<std::size_t>& sel = out.positions;
  sel = {0, n - 1};
  const std::size_t budget = std::max<std::size_t>(2, cfg.max_points);
  while (sel.size() < std::min(budget, n)) {
    double worst_err = 0.0;
    std::size_t worst_pos = 0;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      if (std::binary_search(sel.begin(), sel.end(), i)) continue;
      double err = 0.0;
      for (const auto& f : funcs)
        err = std::max(err, rescan_point_error(xs, f, sel, i));
      if (err > worst_err) {
        worst_err = err;
        worst_pos = i;
      }
    }
    if (worst_err <= cfg.tolerance_ps) break;
    sel.insert(std::upper_bound(sel.begin(), sel.end(), worst_pos), worst_pos);
  }
  for (const auto& f : funcs) {
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      worst = std::max(worst, rescan_point_error(xs, f, sel, i));
    out.residual_ps = std::max(out.residual_ps, worst);
  }
  return out;
}

void expect_same_selection(const std::vector<double>& xs,
                           const std::vector<std::vector<double>>& funcs,
                           const IndexSelectionConfig& cfg) {
  const IndexSelection want = rescan_select(xs, funcs, cfg);
  const IndexSelection got = select_indices(xs, funcs, cfg);
  EXPECT_EQ(got.positions, want.positions) << "n=" << xs.size();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.residual_ps),
            std::bit_cast<std::uint64_t>(want.residual_ps))
      << got.residual_ps << " vs " << want.residual_ps;
}

TEST(IndexSelection, IncrementalMatchesReference) {
  Rng rng(29);
  auto axis = [&](std::size_t n, bool even) {
    std::vector<double> xs(n);
    double x = rng.uniform(0.0, 5.0);
    for (auto& v : xs) {
      v = x;
      x += even ? 1.0 : rng.uniform(0.1, 10.0);
    }
    return xs;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 2 + rng.below(30);
    const bool even = rng.chance(0.5);
    const std::vector<double> xs = axis(n, even);
    std::vector<std::vector<double>> funcs(1 + rng.below(6));
    // Small integer values on an even axis make equal errors (ties)
    // common; the rest are smooth-ish random curves.
    const bool ties = rng.chance(0.4);
    for (auto& f : funcs) {
      f.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        f[i] = ties ? static_cast<double>(rng.below(4))
                    : std::sqrt(xs[i]) * rng.uniform(1.0, 20.0) +
                          rng.uniform(-1.0, 1.0);
    }
    IndexSelectionConfig cfg;
    cfg.max_points = 2 + rng.below(9);
    cfg.tolerance_ps = rng.chance(0.3) ? rng.uniform(0.0, 3.0) : 1e-4;
    expect_same_selection(xs, funcs, cfg);
  }
  // Constant functions: nothing to select beyond the endpoints.
  const std::vector<double> xs = axis(13, false);
  expect_same_selection(xs, {std::vector<double>(13, 4.5)}, {});
  // A tolerance stop and a budget stop on one curve.
  std::vector<double> curve(13);
  for (std::size_t i = 0; i < 13; ++i) curve[i] = std::sqrt(xs[i]) * 10.0;
  expect_same_selection(xs, {curve}, {.max_points = 13, .tolerance_ps = 0.5});
  expect_same_selection(xs, {curve}, {.max_points = 3, .tolerance_ps = 0.0});
  // The smallest axes.
  expect_same_selection({1.0, 2.0}, {{3.0, 7.0}}, {});
  expect_same_selection({1.0, 2.0, 4.0}, {{3.0, 9.0, 4.0}}, {});
  expect_same_selection({1.0, 2.0, 4.0}, {{3.0, 9.0, 4.0}}, {.max_points = 2});
}

// ------------------------------------------------------------ chains

/// A chain evaluated point by point: every segment looked up at every
/// (slew, load) sample — the walk compose_chain's row sampler replaces.
ArcEval pointwise_chain(const Chain& chain, unsigned el, unsigned out_rf,
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
    const double derate =
        seg.arc.kind == GraphArcKind::kCell && !seg.arc.baked_derate
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
    const double inf = late ? -1e290 : 1e290;
    return {inf, inf};
  }
  return {delay[out_rf], slew[out_rf]};
}

/// compose_chain rebuilt on the pointwise walk: the same dense axes,
/// joint slew then load selection, and table construction.
ComposedTables pointwise_compose(const Chain& chain, ArcSense variant,
                                 const IndexSelectionConfig& cfg,
                                 const AocvConfig& aocv) {
  static const std::vector<double> kDefaultSlews{1.0,  2.5,  5.0, 10.0,
                                                 25.0, 50.0, 120.0};
  std::vector<double> slews;
  for (const auto& seg : chain) {
    if (seg.arc.kind != GraphArcKind::kCell || seg.arc.delay == nullptr)
      continue;
    const auto idx = (*seg.arc.delay)(kLate, kRise).slew_index();
    slews.assign(idx.begin(), idx.end());
    if (!slews.empty()) break;
  }
  std::vector<double> loads;
  if (arc_load_dependent(chain.back().arc)) {
    const auto idx = (*chain.back().arc.delay)(kLate, kRise).load_index();
    loads.assign(idx.begin(), idx.end());
  }
  const std::vector<double> sx =
      densify_axis(slews.empty() ? kDefaultSlews : slews);
  const std::vector<double> lx = densify_axis(loads);
  const bool twod = !lx.empty();
  const std::size_t ns = sx.size();
  const std::size_t nl = std::max<std::size_t>(1, lx.size());
  ElRf<std::vector<double>> d, sl;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      const unsigned start_rf =
          variant == ArcSense::kPositiveUnate ? rf : 1u - rf;
      for (std::size_t i = 0; i < ns; ++i)
        for (std::size_t j = 0; j < nl; ++j) {
          const ArcEval e = pointwise_chain(chain, el, rf, start_rf, sx[i],
                                            twod ? lx[j] : 0.0, aocv);
          d(el, rf).push_back(e.delay);
          sl(el, rf).push_back(e.out_slew);
        }
    }
  ComposedTables out;
  out.sense = variant;
  std::vector<std::vector<double>> sfuncs;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      for (std::size_t j = 0; j < nl; ++j) {
        std::vector<double> fd, fs;
        for (std::size_t i = 0; i < ns; ++i) {
          fd.push_back(d(el, rf)[i * nl + j]);
          fs.push_back(sl(el, rf)[i * nl + j]);
        }
        sfuncs.push_back(fd);
        sfuncs.push_back(fs);
      }
  out.selections.push_back(select_indices(sx, sfuncs, cfg));
  const std::vector<std::size_t> si = out.selections.back().positions;
  std::vector<std::size_t> li;
  if (twod) {
    std::vector<std::vector<double>> lfuncs;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        for (std::size_t i : si) {
          std::vector<double> fd, fs;
          for (std::size_t j = 0; j < nl; ++j) {
            fd.push_back(d(el, rf)[i * nl + j]);
            fs.push_back(sl(el, rf)[i * nl + j]);
          }
          lfuncs.push_back(fd);
          lfuncs.push_back(fs);
        }
    out.selections.push_back(select_indices(lx, lfuncs, cfg));
    li = out.selections.back().positions;
  }
  std::vector<double> s_idx, l_idx;
  for (std::size_t i : si) s_idx.push_back(sx[i]);
  for (std::size_t j : li) l_idx.push_back(lx[j]);
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      std::vector<double> dv, sv;
      for (std::size_t i : si) {
        if (twod) {
          for (std::size_t j : li) {
            dv.push_back(d(el, rf)[i * nl + j]);
            sv.push_back(sl(el, rf)[i * nl + j]);
          }
        } else {
          dv.push_back(d(el, rf)[i * nl]);
          sv.push_back(sl(el, rf)[i * nl]);
        }
      }
      if (twod && s_idx.size() >= 2 && l_idx.size() >= 2) {
        out.delay(el, rf) = Lut::table2d(s_idx, l_idx, dv);
        out.out_slew(el, rf) = Lut::table2d(s_idx, l_idx, sv);
      } else if (s_idx.size() >= 2) {
        out.delay(el, rf) = Lut::table1d(s_idx, dv);
        out.out_slew(el, rf) = Lut::table1d(s_idx, sv);
      } else {
        out.delay(el, rf) = Lut::scalar(dv.empty() ? 0.0 : dv[0]);
        out.out_slew(el, rf) = Lut::scalar(sv.empty() ? 0.0 : sv[0]);
      }
    }
  return out;
}

TEST(ComposeChain, RowSamplerMatchesPointwise) {
  const Library& lib = test::shared_library();
  auto cell_seg = [&](const char* cell, std::size_t arc, double load,
                      std::uint32_t depth) {
    const ArcSpec& spec = lib.cell(lib.cell_id(cell)).arcs[arc];
    GraphArc a;
    a.kind = GraphArcKind::kCell;
    a.sense = spec.sense;
    a.delay = &spec.delay;
    a.out_slew = &spec.out_slew;
    return ChainSeg{a, load, depth};
  };
  auto wire_seg = [](double delay_ps, double load) {
    GraphArc a;
    a.kind = GraphArcKind::kWire;
    a.wire_delay_ps = delay_ps;
    return ChainSeg{a, load, 0};
  };
  // A load-independent (1-D, baked) interior arc, the form an earlier
  // merge leaves behind; its delay and slew tables use different axes.
  ElRf<Lut> d1, s1;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      const double k = 1.0 + 0.1 * el + 0.05 * rf;
      d1(el, rf) = Lut::table1d({1.0, 8.0, 40.0, 150.0},
                                {5.0 * k, 7.0 * k, 15.0 * k, 40.0 * k});
      s1(el, rf) = Lut::table1d({2.0, 30.0, 200.0},
                                {4.0 * k, 12.0 * k, 60.0 * k});
    }
  GraphArc merged;
  merged.kind = GraphArcKind::kCell;
  merged.sense = ArcSense::kNegativeUnate;
  merged.delay = &d1;
  merged.out_slew = &s1;
  merged.baked_derate = true;
  const ChainSeg one_d{merged, 1.3, 2};

  const std::vector<Chain> chains{
      {cell_seg("BUF_X1", 0, 2.0, 0), cell_seg("INV_X2", 0, 3.0, 1)},
      {cell_seg("INV_X1", 0, 1.5, 0), wire_seg(2.5, 1.0),
       cell_seg("XOR2_X1", 0, 2.2, 2), cell_seg("BUF_X4", 0, 0.7, 3)},
      {cell_seg("XOR2_X1", 1, 1.0, 1), cell_seg("MUX2_X1", 2, 2.0, 2)},
      {cell_seg("BUF_X2", 0, 2.0, 0), wire_seg(1.5, 2.0)},
      {cell_seg("MUX2_X2", 0, 4.0, 5), one_d},
      {wire_seg(1.0, 1.0), wire_seg(3.0, 2.0)},
      {cell_seg("INV_X4", 0, 6.0, 0)},
  };
  AocvConfig aocv;
  aocv.enabled = true;
  const std::vector<IndexSelectionConfig> cfgs{
      {}, {.max_points = 4}, {.max_points = 5, .error_driven = false}};
  int compared = 0;
  for (const Chain& chain : chains)
    for (const AocvConfig& mode : {AocvConfig{}, aocv})
      for (const IndexSelectionConfig& cfg : cfgs)
        for (ArcSense variant :
             {ArcSense::kPositiveUnate, ArcSense::kNegativeUnate}) {
          const ComposedTables got = compose_chain(chain, variant, cfg, mode);
          const ComposedTables want =
              pointwise_compose(chain, variant, cfg, mode);
          EXPECT_EQ(got.sense, want.sense);
          ASSERT_EQ(got.selections.size(), want.selections.size());
          for (std::size_t k = 0; k < got.selections.size(); ++k) {
            EXPECT_EQ(got.selections[k].positions,
                      want.selections[k].positions);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          got.selections[k].residual_ps),
                      std::bit_cast<std::uint64_t>(
                          want.selections[k].residual_ps));
          }
          for (unsigned el = 0; el < kNumEl; ++el)
            for (unsigned rf = 0; rf < kNumRf; ++rf) {
              EXPECT_TRUE(got.delay(el, rf) == want.delay(el, rf))
                  << "chain " << &chain - chains.data() << " el " << el
                  << " rf " << rf;
              EXPECT_TRUE(got.out_slew(el, rf) == want.out_slew(el, rf))
                  << "chain " << &chain - chains.data() << " el " << el
                  << " rf " << rf;
            }
          ++compared;
        }
  EXPECT_EQ(compared, 7 * 2 * 3 * 2);
}

TEST(DensifyAxis, AddsMidpoints) {
  const auto dense = densify_axis(std::vector<double>{1.0, 2.0, 4.0});
  const std::vector<double> expected{1.0, 1.5, 2.0, 3.0, 4.0};
  EXPECT_EQ(dense, expected);
}

}  // namespace
}  // namespace tmm
