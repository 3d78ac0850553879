// GraphArc::one_grid is derived data the STA engine trusts: a one_grid
// arc's tables are all evaluated at grid positions located on
// delay(0, 0)'s axes. These tests recompute the flag independently
// after every way a graph gets its tables, and check that an arc whose
// tables do not share a grid still times exactly as per-table lookups.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>

#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "macro/model_io.hpp"
#include "serve/tmb.hpp"
#include "sta/propagation.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

bool same_axis(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (std::bit_cast<std::uint64_t>(a[k]) != std::bit_cast<std::uint64_t>(b[k]))
      return false;
  return true;
}

/// The flag from first principles: every delay and out-slew table has
/// delay(0, 0)'s slew and load axes, bit for bit.
bool recompute_one_grid(const GraphArc& a) {
  if (a.kind != GraphArcKind::kCell || !a.delay || !a.out_slew) return false;
  const Lut& ref = (*a.delay)(0, 0);
  for (const ElRf<Lut>* t : {a.delay, a.out_slew})
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        if (!same_axis((*t)(el, rf).slew_index(), ref.slew_index()) ||
            !same_axis((*t)(el, rf).load_index(), ref.load_index()))
          return false;
  return true;
}

/// Every live cell arc's flag matches the recomputation; returns how
/// many live cell arcs were one_grid.
std::size_t expect_flags_match(const TimingGraph& g, const char* where) {
  std::size_t shared = 0;
  for (ArcId i = 0; i < g.num_arcs(); ++i) {
    const GraphArc& a = g.arc(i);
    if (a.dead || a.kind != GraphArcKind::kCell) continue;
    EXPECT_EQ(a.one_grid, recompute_one_grid(a)) << where << ": arc " << i;
    shared += a.one_grid ? 1 : 0;
  }
  return shared;
}

TEST(OneGrid, MatchesRecomputationThroughGenerationAndReadBack) {
  const Design d = test::make_small_design("grid", 41);
  const TimingGraph flat = build_timing_graph(d);
  EXPECT_GT(expect_flags_match(flat, "library graph"), 0u);

  TimingGraph ilm = extract_ilm(flat).graph;
  EXPECT_GT(expect_flags_match(ilm, "ilm"), 0u);

  std::vector<bool> keep(ilm.num_nodes(), false);
  const MergeStats stats = merge_insensitive_pins(ilm, keep);
  ASSERT_GT(stats.pins_removed, 0u);
  expect_flags_match(ilm, "merge");
  std::size_t owned_arcs = 0;
  for (ArcId i = 0; i < ilm.num_arcs(); ++i)
    if (!ilm.arc(i).dead && ilm.owns_tables(ilm.arc(i).delay)) ++owned_arcs;
  EXPECT_GT(owned_arcs, 0u);  // re-characterized tables were checked

  MacroModel m;
  m.design_name = "grid";
  m.graph = ilm;
  std::stringstream ss;
  write_macro_model(m, ss);
  const MacroModel text = read_macro_model(ss);
  expect_flags_match(text.graph, ".macro read-back");
  const MacroModel packed =
      serve::unpack_model(serve::pack_model(m), "grid.tmb");
  expect_flags_match(packed.graph, ".tmb read-back");
}

TEST(OneGrid, MatchesRecomputationAcrossMergeDeltaApplyAndUndo) {
  const Design d = test::make_small_design("grid_delta", 43);
  TimingGraph g = extract_ilm(build_timing_graph(d)).graph;
  MergeConfig mcfg;
  std::vector<NodeId> cands;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg)) cands.push_back(n);
  ASSERT_FALSE(cands.empty());
  g.topo_order();
  MergeDelta delta(g);
  std::size_t applied = 0;
  for (const NodeId pin : cands) {
    if (delta.apply(pin, mcfg)) {
      ++applied;
      expect_flags_match(g, "delta apply");
    }
    delta.undo();
    expect_flags_match(g, "delta undo");
  }
  EXPECT_GT(applied, 0u);
}

/// 8 delay + 8 slew tables on one 3x3 grid; values are affine in
/// (slew, load) with per-table offsets so every table differs.
void fill_tables(ElRf<Lut>& delay, ElRf<Lut>& slew,
                 const std::vector<double>& si,
                 const std::vector<double>& li) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      std::vector<double> dv, sv;
      for (double s : si)
        for (double c : li) {
          dv.push_back(5.0 + el + 2.0 * rf + 0.3 * s + 1.7 * c + 0.01 * s * c);
          sv.push_back(3.0 + 0.5 * el + rf + 0.6 * s + 2.1 * c);
        }
      delay(el, rf) = Lut::table2d(si, li, dv);
      slew(el, rf) = Lut::table2d(si, li, sv);
    }
}

/// PI "a" -> cell arc -> PO "b", b driving a static load.
struct TwoPin {
  TimingGraph g;
  ArcId arc = 0;
  TwoPin(const ElRf<Lut>* delay, const ElRf<Lut>* slew) {
    GraphNode a;
    a.name = "a";
    GraphNode b;
    b.name = "b";
    b.static_load_ff = 2.75;
    const NodeId na = g.add_node(a);
    const NodeId nb = g.add_node(b);
    g.set_primary_input(na, 0, false);
    g.set_primary_output(nb, 0);
    g.node(nb).attached_po_loads.push_back(0);
    arc = g.add_cell_arc(na, nb, ArcSense::kNonUnate, delay, slew);
  }
  bool one_grid() const { return g.arc(arc).one_grid; }
};

BoundaryConstraints two_pin_constraints(double slew_ps) {
  BoundaryConstraints bc;
  bc.pi.resize(1);
  bc.po.resize(1);
  bc.po[0].load_ff = 1.5;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      bc.pi[0].at(el, rf) = 10.0 * el + 3.0 * rf;
      bc.pi[0].slew(el, rf) = slew_ps + 7.0 * el + 11.0 * rf;
      bc.po[0].rat(el, rf) = 400.0 - 20.0 * el + rf;
    }
  return bc;
}

/// Sta's values at both pins against a hand evaluation with per-table
/// lookup (non-unate: each output transition takes the worse input).
void expect_sta_matches_lookup(const TwoPin& t, const BoundaryConstraints& bc) {
  Sta sta(t.g);
  sta.run(bc);
  const GraphArc& arc = t.g.arc(t.arc);
  const double load = 2.75 + bc.po[0].load_ff;
  const PinTiming in = sta.timing(0);
  const PinTiming out = sta.timing(1);
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned orf = 0; orf < kNumRf; ++orf) {
      double at = el == kLate ? -kInf : kInf;
      double slew = at;
      for (unsigned irf = 0; irf < kNumRf; ++irf) {
        const double su = in.slew(el, irf);
        const double d = (*arc.delay)(el, orf).lookup(su, load);
        const double so = (*arc.out_slew)(el, orf).lookup(su, load);
        const double cand = in.at(el, irf) + d;
        if (el == kLate) {
          at = std::max(at, cand);
          slew = std::max(slew, so);
        } else {
          at = std::min(at, cand);
          slew = std::min(slew, so);
        }
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out.at(el, orf)),
                std::bit_cast<std::uint64_t>(at))
          << "el " << el << " rf " << orf;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out.slew(el, orf)),
                std::bit_cast<std::uint64_t>(slew))
          << "el " << el << " rf " << orf;
    }
  // Backward: rat(a, irf) is the tightest of rat(b, orf) - delay.
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned irf = 0; irf < kNumRf; ++irf) {
      double rat = el == kLate ? kInf : -kInf;
      for (unsigned orf = 0; orf < kNumRf; ++orf) {
        const double d =
            (*arc.delay)(el, orf).lookup(in.slew(el, irf), load);
        const double cand = out.rat(el, orf) - d;
        rat = el == kLate ? std::min(rat, cand) : std::max(rat, cand);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(in.rat(el, irf)),
                std::bit_cast<std::uint64_t>(rat))
          << "el " << el << " rf " << irf;
    }
}

TEST(OneGrid, SharedGridArcTimesAsPerTableLookups) {
  ElRf<Lut> delay, slew;
  fill_tables(delay, slew, {1, 10, 40}, {0.5, 3, 12});
  const TwoPin t(&delay, &slew);
  ASSERT_TRUE(t.one_grid());
  for (double s : {0.0, 1.0, 5.5, 40.0, 90.0})
    expect_sta_matches_lookup(t, two_pin_constraints(s));
}

TEST(OneGrid, ArcWithOwnRiseSlewAxisTimesAsPerTableLookups) {
  ElRf<Lut> delay, slew;
  fill_tables(delay, slew, {1, 10, 40}, {0.5, 3, 12});
  ElRf<Lut> odd_delay, odd_slew;
  fill_tables(odd_delay, odd_slew, {2, 8, 25}, {0.5, 3, 12});
  delay(kLate, kRise) = odd_delay(kLate, kRise);
  const TwoPin t(&delay, &slew);
  ASSERT_FALSE(t.one_grid());
  EXPECT_FALSE(recompute_one_grid(t.g.arc(t.arc)));
  for (double s : {0.0, 1.0, 5.5, 40.0, 90.0})
    expect_sta_matches_lookup(t, two_pin_constraints(s));
}

TEST(OneGrid, AxesEqualInValueButNotInBitsAreNotShared) {
  ElRf<Lut> delay, slew;
  fill_tables(delay, slew, {0.0, 10, 40}, {0.5, 3, 12});
  ElRf<Lut> neg_delay, neg_slew;
  fill_tables(neg_delay, neg_slew, {-0.0, 10, 40}, {0.5, 3, 12});
  EXPECT_TRUE(TwoPin(&delay, &slew).one_grid());
  slew(kEarly, kFall) = neg_slew(kEarly, kFall);
  EXPECT_FALSE(TwoPin(&delay, &slew).one_grid());
  EXPECT_FALSE(TwoPin(&delay, nullptr).one_grid());
}

TEST(OneGrid, SetCellTablesRederivesTheFlag) {
  ElRf<Lut> delay, slew;
  fill_tables(delay, slew, {1, 10, 40}, {0.5, 3, 12});
  ElRf<Lut> mixed = delay;
  mixed(kEarly, kRise) = Lut::table1d({1, 10, 40}, {1, 2, 3});
  TwoPin t(&delay, &slew);
  ASSERT_TRUE(t.one_grid());
  t.g.set_cell_tables(t.arc, &mixed, &slew);
  EXPECT_FALSE(t.one_grid());
  EXPECT_EQ(t.g.arc(t.arc).delay, &mixed);
  t.g.set_cell_tables(t.arc, &delay, &slew);
  EXPECT_TRUE(t.one_grid());
}

}  // namespace
}  // namespace tmm
