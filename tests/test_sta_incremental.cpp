#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/fault.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "sensitivity/ts_eval.hpp"
#include "sta/propagation.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace tmm {
namespace {

AocvConfig test_aocv() {
  AocvConfig a;
  a.enabled = true;
  return a;
}

// Exact (bitwise) equality of two snapshots: the incremental TS path
// feeds GNN training labels, so "close" is not good enough.
void expect_snapshot_bits_equal(const BoundarySnapshot& got,
                                const BoundarySnapshot& want) {
  ASSERT_EQ(got.num_ports, want.num_ports);
  auto eq = [](const std::vector<double>& x, const std::vector<double>& y,
               const char* what) {
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(std::memcmp(&x[i], &y[i], sizeof(double)), 0)
          << what << "[" << i << "]: " << x[i] << " vs " << y[i];
  };
  eq(got.slew, want.slew, "slew");
  eq(got.at, want.at, "at");
  eq(got.rat, want.rat, "rat");
  eq(got.slack, want.slack, "slack");
}

// Field-by-field equality of two graphs, including the lazily cached
// adjacency and topological order (the delta contract keeps them valid
// across apply/undo instead of invalidating).
void expect_graph_equal(const TimingGraph& a, const TimingGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  ASSERT_EQ(a.num_checks(), b.num_checks());
  EXPECT_EQ(a.num_owned_tables(), b.num_owned_tables());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node(n).dead, b.node(n).dead) << "node " << n;
    EXPECT_EQ(a.fanin(n), b.fanin(n)) << "fanin of " << n;
    EXPECT_EQ(a.fanout(n), b.fanout(n)) << "fanout of " << n;
    EXPECT_EQ(a.checks_of(n), b.checks_of(n)) << "checks of " << n;
  }
  for (ArcId i = 0; i < a.num_arcs(); ++i) {
    const GraphArc& x = a.arc(i);
    const GraphArc& y = b.arc(i);
    EXPECT_EQ(x.from, y.from) << "arc " << i;
    EXPECT_EQ(x.to, y.to) << "arc " << i;
    EXPECT_EQ(x.kind, y.kind) << "arc " << i;
    EXPECT_EQ(x.sense, y.sense) << "arc " << i;
    EXPECT_EQ(x.is_launch, y.is_launch) << "arc " << i;
    EXPECT_EQ(x.dead, y.dead) << "arc " << i;
    EXPECT_EQ(x.baked_derate, y.baked_derate) << "arc " << i;
    EXPECT_EQ(x.one_grid, y.one_grid) << "arc " << i;
    EXPECT_EQ(x.wire_delay_ps, y.wire_delay_ps) << "arc " << i;
    EXPECT_EQ(x.delay, y.delay) << "arc " << i;
    EXPECT_EQ(x.out_slew, y.out_slew) << "arc " << i;
  }
  EXPECT_EQ(a.topo_order(), b.topo_order());
}

// From-scratch what-if result for removing `pin`: graph copy + full
// merge + full propagation — the path the incremental engine must
// reproduce bit for bit.
BoundarySnapshot full_path_snapshot(const TimingGraph& ilm, NodeId pin,
                                    const MergeConfig& mcfg,
                                    const Sta::Options& opt,
                                    const BoundaryConstraints& bc) {
  TimingGraph scratch = ilm;
  std::vector<bool> keep(ilm.num_nodes(), true);
  keep[pin] = false;
  merge_insensitive_pins(scratch, keep, mcfg);
  Sta sta(scratch, opt);
  sta.run(bc);
  return sta.boundary_snapshot();
}

/// Randomized equivalence harness: random graphs x random single-pin
/// removals x random constraint sets; run_incremental snapshots must
/// exactly equal from-scratch runs, and undo must restore the graph
/// byte-equivalently each round.
void run_equivalence(const Design& d, bool use_ilm, bool cppr, bool aocv,
                     std::uint64_t seed, std::size_t num_pins,
                     std::size_t num_sets) {
  SCOPED_TRACE(testing::Message() << "cppr=" << cppr << " aocv=" << aocv
                                  << " ilm=" << use_ilm << " seed=" << seed);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = use_ilm ? extract_ilm(flat).graph : flat;
  ASSERT_FALSE(has_parallel_duplicate_arcs(g));
  Sta::Options opt;
  opt.cppr = cppr;
  if (aocv) opt.aocv = test_aocv();
  MergeConfig mcfg;
  mcfg.aocv = opt.aocv;

  Rng rng(seed);
  std::vector<BoundaryConstraints> sets;
  for (std::size_t c = 0; c < num_sets; ++c)
    sets.push_back(random_constraints(g.primary_inputs().size(),
                                      g.primary_outputs().size(), {}, rng));
  std::vector<NodeId> cands;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg)) cands.push_back(n);
  ASSERT_FALSE(cands.empty());

  g.topo_order();  // materialize caches before the pristine copy
  const TimingGraph pristine = g;
  MergeDelta delta(g);
  std::vector<Sta> engines;
  engines.reserve(sets.size());
  for (std::size_t c = 0; c < sets.size(); ++c) {
    engines.emplace_back(g, opt);
    engines.back().run(sets[c]);
    engines.back().set_reference();
  }

  BoundarySnapshot snap;
  std::size_t removed_count = 0;
  for (std::size_t k = 0; k < num_pins; ++k) {
    const NodeId pin = cands[rng() % cands.size()];
    SCOPED_TRACE(testing::Message() << "pin " << pin);
    const bool removed = delta.apply(pin, mcfg);
    removed_count += removed ? 1 : 0;
    for (std::size_t c = 0; c < sets.size(); ++c) {
      engines[c].run_incremental(sets[c], delta.touched());
      engines[c].snapshot_into(snap);
      expect_snapshot_bits_equal(
          snap, full_path_snapshot(pristine, pin, mcfg, opt, sets[c]));
    }
    delta.undo();
    expect_graph_equal(g, pristine);
  }
  // The harness must actually exercise removals, not only refusals.
  EXPECT_GT(removed_count, 0u);
}

TEST(StaIncremental, EquivalentOnTinyDesignAllModes) {
  const Design d = test::make_tiny_design("inc_tiny", 101);
  for (const bool cppr : {false, true})
    for (const bool aocv : {false, true})
      run_equivalence(d, /*use_ilm=*/false, cppr, aocv, 0x11 + cppr + 2 * aocv,
                      /*num_pins=*/8, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnTinyIlm) {
  const Design d = test::make_tiny_design("inc_tiny_ilm", 102);
  for (const bool cppr : {false, true})
    run_equivalence(d, /*use_ilm=*/true, cppr, /*aocv=*/false, 0x21 + cppr,
                    /*num_pins=*/8, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnSmallIlmCppr) {
  const Design d = test::make_small_design("inc_small", 103);
  run_equivalence(d, /*use_ilm=*/true, /*cppr=*/true, /*aocv=*/false, 0x31,
                  /*num_pins=*/6, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnSmallIlmAocv) {
  const Design d = test::make_small_design("inc_small_aocv", 104);
  run_equivalence(d, /*use_ilm=*/true, /*cppr=*/true, /*aocv=*/true, 0x41,
                  /*num_pins=*/6, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnBufferChain) {
  const Design d = test::make_buffer_chain(12);
  run_equivalence(d, /*use_ilm=*/false, /*cppr=*/true, /*aocv=*/false, 0x51,
                  /*num_pins=*/10, /*num_sets=*/2);
}

TEST(StaIncremental, RunIncrementalRequiresReference) {
  const Design d = test::make_tiny_design("inc_guard", 105);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g, Sta::Options{});
  const std::vector<NodeId> none;
  EXPECT_THROW(sta.run_incremental({}, none), std::logic_error);
}

TEST(StaIncremental, EmptyDirtySetReproducesReference) {
  const Design d = test::make_tiny_design("inc_empty", 106);
  const TimingGraph g = build_timing_graph(d);
  Rng rng(7);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
  Sta sta(g, Sta::Options{});
  sta.run(bc);
  const BoundarySnapshot ref = sta.boundary_snapshot();
  sta.set_reference();
  const std::vector<NodeId> none;
  const StaIncrementalStats st = sta.run_incremental(bc, none);
  EXPECT_EQ(st.fwd_recomputed, 0u);
  EXPECT_EQ(st.bwd_recomputed, 0u);
  expect_snapshot_bits_equal(sta.boundary_snapshot(), ref);
}

TEST(MergeDelta, ApplyUndoRoundTripIsByteEquivalent) {
  const Design d = test::make_small_design("delta_rt", 107);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  MergeConfig mcfg;
  std::vector<NodeId> cands;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg)) cands.push_back(n);
  ASSERT_FALSE(cands.empty());
  g.topo_order();
  const TimingGraph pristine = g;
  MergeDelta delta(g);
  std::size_t applied = 0;
  for (const NodeId pin : cands) {
    if (delta.apply(pin, mcfg)) {
      ++applied;
      EXPECT_FALSE(delta.touched().empty());
      EXPECT_TRUE(g.node(pin).dead);
    }
    delta.undo();
    expect_graph_equal(g, pristine);
  }
  EXPECT_GT(applied, 0u);
}

TEST(MergeDelta, RefusedPinLeavesGraphUntouched) {
  const Design d = test::make_tiny_design("delta_refuse", 108);
  TimingGraph g = build_timing_graph(d);
  g.topo_order();
  const std::size_t arcs = g.num_arcs();
  MergeDelta delta(g);
  // A primary input is never mergeable.
  const NodeId pi = g.primary_inputs()[0];
  MergeConfig mcfg;
  EXPECT_FALSE(delta.apply(pi, mcfg));
  EXPECT_FALSE(delta.applied());
  EXPECT_TRUE(delta.touched().empty());
  EXPECT_EQ(g.num_arcs(), arcs);
  delta.undo();  // no-op
  EXPECT_EQ(g.num_arcs(), arcs);
}

TEST(MergeDelta, ApplyTwiceWithoutUndoThrows) {
  const Design d = test::make_small_design("delta_twice", 109);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  MergeConfig mcfg;
  NodeId pin = kInvalidId;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg) && !g.fanin(n).empty() && !g.fanout(n).empty()) {
      pin = n;
      break;
    }
  ASSERT_NE(pin, kInvalidId);
  g.topo_order();
  MergeDelta delta(g);
  ASSERT_TRUE(delta.apply(pin, mcfg));
  EXPECT_THROW(delta.apply(pin, mcfg), std::logic_error);
  delta.undo();
}

// Eq. 1 computed directly, pin by pin: remove the pin from a fresh copy
// with merge_insensitive_pins, give every constraint set a fresh full
// Sta run, and average the four Eq. 2 terms per set, then the sets —
// the result evaluate_timing_sensitivity must reproduce bit for bit.
std::vector<double> reference_ts(const TimingGraph& ilm,
                                 const std::vector<bool>& cands,
                                 const TsConfig& cfg) {
  Sta::Options opt;
  opt.cppr = cfg.cppr;
  opt.aocv = cfg.merge.aocv;
  Rng rng(cfg.seed);
  std::vector<BoundaryConstraints> sets;
  std::vector<BoundarySnapshot> refs;
  for (std::size_t c = 0; c < cfg.num_constraint_sets; ++c) {
    sets.push_back(random_constraints(ilm.primary_inputs().size(),
                                      ilm.primary_outputs().size(),
                                      cfg.constraint_gen, rng));
    Sta sta(ilm, opt);
    sta.run(sets.back());
    refs.push_back(sta.boundary_snapshot());
  }
  std::vector<double> ts(ilm.num_nodes(), 0.0);
  for (NodeId n = 0; n < ilm.num_nodes(); ++n) {
    if (!cands[n] || ilm.node(n).dead || !mergeable(ilm, n, cfg.merge))
      continue;
    TimingGraph g = ilm;
    std::vector<bool> keep(ilm.num_nodes(), true);
    keep[n] = false;
    merge_insensitive_pins(g, keep, cfg.merge);
    double sum = 0.0;
    for (std::size_t c = 0; c < sets.size(); ++c) {
      Sta sta(g, opt);
      sta.run(sets[c]);
      const BoundarySnapshot after = sta.boundary_snapshot();
      const double ds = mean_relative_diff(after.slew, refs[c].slew);
      const double da = mean_relative_diff(after.at, refs[c].at);
      const double dr = mean_relative_diff(after.rat, refs[c].rat);
      const double dk = mean_relative_diff(after.slack, refs[c].slack);
      sum += (ds + da + dr + dk) / 4.0;
    }
    ts[n] = sum / static_cast<double>(sets.size());
  }
  return ts;
}

TEST(TsIncremental, EvaluateTimingSensitivityBitIdentical) {
  const Design d = test::make_small_design("ts_inc", 110);
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  const std::vector<bool> cands(ilm.graph.num_nodes(), true);
  for (const bool cppr : {false, true}) {
    for (const bool aocv : {false, true}) {
      TsConfig cfg;
      cfg.num_constraint_sets = 2;
      cfg.cppr = cppr;
      if (aocv) cfg.merge.aocv = test_aocv();
      const std::vector<double> want = reference_ts(ilm.graph, cands, cfg);
      for (const std::size_t threads : {1, 2}) {
        SCOPED_TRACE(testing::Message() << "cppr=" << cppr << " aocv=" << aocv
                                        << " threads=" << threads);
        cfg.threads = threads;
        const TsResult got = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
        EXPECT_EQ(got.failed_pins, 0u);
        EXPECT_EQ(got.skipped_sets, 0u);
        ASSERT_EQ(got.ts.size(), want.size());
        std::size_t nonzero = 0;
        for (std::size_t n = 0; n < want.size(); ++n) {
          EXPECT_EQ(std::memcmp(&got.ts[n], &want[n], sizeof(double)), 0)
              << "ts[" << n << "]: " << got.ts[n] << " vs " << want[n];
          nonzero += got.ts[n] != 0.0 ? 1 : 0;
        }
        // The comparison must be about real sensitivities, not all zeros.
        EXPECT_GT(nonzero, 0u);
      }
    }
  }
}

TEST(TsIncremental, RejectsParallelDuplicateArcs) {
  const Design d = test::make_small_design("ts_dup", 111);
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  TimingGraph& g = ilm.graph;
  // Duplicate one live cell arc (same endpoints, sense and tables).
  ArcId dup = kInvalidId;
  for (ArcId a = 0; a < g.num_arcs() && dup == kInvalidId; ++a) {
    const GraphArc& arc = g.arc(a);
    if (!arc.dead && !arc.is_launch && arc.kind == GraphArcKind::kCell)
      dup = a;
  }
  ASSERT_NE(dup, kInvalidId);
  const GraphArc arc = g.arc(dup);
  g.add_cell_arc(arc.from, arc.to, arc.sense, arc.delay, arc.out_slew);
  ASSERT_TRUE(has_parallel_duplicate_arcs(g));
  TimingGraph scratch = g;
  EXPECT_THROW(MergeDelta{scratch}, std::invalid_argument);

  const std::vector<bool> cands(g.num_nodes(), true);
  TsConfig cfg;
  cfg.num_constraint_sets = 2;
  cfg.threads = 2;
  try {
    evaluate_timing_sensitivity(g, cands, cfg);
    ADD_FAILURE() << "expected FlowError";
  } catch (const fault::FlowError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kConfig);
    EXPECT_EQ(e.stage(), "ts.eval");
  }
}

TEST(TsEval, MeanRelativeDiffSizeMismatchIsMaxPenalty) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_EQ(mean_relative_diff(a, b), 1.0);
  EXPECT_EQ(mean_relative_diff(b, a), 1.0);
  EXPECT_EQ(mean_relative_diff(a, a), 0.0);
}

}  // namespace
}  // namespace tmm
