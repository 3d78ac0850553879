#include <gtest/gtest.h>

#include "macro/evaluate.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "macro/model_io.hpp"
#include "test_helpers.hpp"

#include <set>
#include <sstream>

namespace tmm {
namespace {

std::vector<BoundaryConstraints> eval_sets(const Design& d, std::uint64_t seed,
                                           int n = 3) {
  Rng rng(seed);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < n; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  return sets;
}

TEST(Merge, ChainCollapsesToFewNodes) {
  const Design d = test::make_buffer_chain(6);
  TimingGraph g = build_timing_graph(d);
  const std::size_t before = g.num_live_nodes();
  std::vector<bool> keep(g.num_nodes(), false);  // merge everything legal
  const MergeStats stats = merge_insensitive_pins(g, keep);
  EXPECT_GT(stats.pins_removed, 0u);
  EXPECT_LT(g.num_live_nodes(), before);
  // The PO-net driver is load-variant and must survive, as must ports.
  EXPECT_GE(g.num_live_nodes(), 3u);
  EXPECT_NO_THROW(g.topo_order());
}

TEST(Merge, FullMergeKeepsChainTimingTight) {
  const Design d = test::make_buffer_chain(6);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph merged = build_timing_graph(d);
  std::vector<bool> keep(merged.num_nodes(), false);
  merge_insensitive_pins(merged, keep);
  const auto sets = eval_sets(d, 9);
  const AccuracyReport rep =
      evaluate_accuracy(flat, merged, sets, {.cppr = false});
  EXPECT_EQ(rep.structural_mismatches, 0u);
  EXPECT_LT(rep.max_err_ps, 0.6);  // re-sampling error only
}

TEST(Merge, ProtectedPinsSurvive) {
  const Design d = test::make_small_design();
  TimingGraph g = build_timing_graph(d);
  std::vector<bool> keep(g.num_nodes(), false);
  merge_insensitive_pins(g, keep);
  for (NodeId p : g.primary_inputs()) EXPECT_FALSE(g.node(p).dead);
  for (NodeId p : g.primary_outputs()) EXPECT_FALSE(g.node(p).dead);
  for (const auto& c : g.checks()) {
    if (c.dead) continue;
    EXPECT_FALSE(g.node(c.clock).dead);
    EXPECT_FALSE(g.node(c.data).dead);
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).dead) continue;
    if (!g.node(n).attached_po_loads.empty()) {
      EXPECT_FALSE(g.node(n).dead);
    }
  }
}

TEST(Merge, KeepFlagIsHonored) {
  const Design d = test::make_buffer_chain(4);
  TimingGraph g = build_timing_graph(d);
  // Keep one interior gate-input pin explicitly.
  NodeId kept_interior = kInvalidId;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto& node = g.node(n);
    if (node.role == NodeRole::kInternal && node.attached_po_loads.empty() &&
        !g.fanin(n).empty() && !g.fanout(n).empty()) {
      kept_interior = n;
      break;
    }
  }
  ASSERT_NE(kept_interior, kInvalidId);
  std::vector<bool> keep(g.num_nodes(), false);
  keep[kept_interior] = true;
  merge_insensitive_pins(g, keep);
  EXPECT_FALSE(g.node(kept_interior).dead);
}

class MergeOnDesign : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeOnDesign, IlmThenFullMergeStaysAccurate) {
  const Design d = test::make_small_design("m", GetParam());
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  const std::size_t ilm_nodes = ilm.graph.num_live_nodes();
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  const MergeStats stats = merge_insensitive_pins(ilm.graph, keep);
  EXPECT_GT(stats.pins_removed, 0u);
  EXPECT_LT(ilm.graph.num_live_nodes(), ilm_nodes);

  // Merging *everything* legal is the worst case the TS metric guards
  // against (per-path slews replace worst-slew merging at removed
  // multi-fanin pins); the structure must stay sound and the error
  // bounded, but tight accuracy is the job of the TS/GNN keep-set,
  // which the flow tests cover.
  const auto sets = eval_sets(d, GetParam() * 13 + 1);
  for (bool cppr : {false, true}) {
    const AccuracyReport rep =
        evaluate_accuracy(flat, ilm.graph, sets, {.cppr = cppr});
    EXPECT_EQ(rep.structural_mismatches, 0u) << "cppr=" << cppr;
    EXPECT_LT(rep.max_err_ps, 100.0) << "cppr=" << cppr;
  }
}

TEST_P(MergeOnDesign, MergedGraphRemainsAcyclicAndConsistent) {
  const Design d = test::make_small_design("m", GetParam());
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  merge_insensitive_pins(ilm.graph, keep);
  EXPECT_NO_THROW(ilm.graph.topo_order());
  for (ArcId a = 0; a < ilm.graph.num_arcs(); ++a) {
    const auto& arc = ilm.graph.arc(a);
    if (arc.dead) continue;
    EXPECT_FALSE(ilm.graph.node(arc.from).dead);
    EXPECT_FALSE(ilm.graph.node(arc.to).dead);
    if (arc.kind == GraphArcKind::kCell) {
      ASSERT_NE(arc.delay, nullptr);
      ASSERT_NE(arc.out_slew, nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeOnDesign, ::testing::Values(1, 2, 3));

TEST(MergeParallel, EnvelopesDuplicateArcs) {
  const Library& lib = test::shared_library();
  const ArcSpec& fast = lib.cell(lib.cell_id("BUF_X4")).arcs[0];
  const ArcSpec& slow = lib.cell(lib.cell_id("BUF_X1")).arcs[0];
  TimingGraph g;
  GraphNode a;
  a.name = "a";
  GraphNode b;
  b.name = "b";
  const NodeId na = g.add_node(a);
  const NodeId nb = g.add_node(b);
  g.add_cell_arc(na, nb, fast.sense, &fast.delay, &fast.out_slew);
  g.add_cell_arc(na, nb, slow.sense, &slow.delay, &slow.out_slew);
  const std::size_t merged = merge_parallel_arcs(g);
  EXPECT_EQ(merged, 1u);
  EXPECT_EQ(g.num_live_arcs(), 1u);
}

TEST(Merge, ModelIoRoundTripPreservesTiming) {
  const Design d = test::make_small_design("io", 5);
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  merge_insensitive_pins(ilm.graph, keep);

  MacroModel model;
  model.design_name = "io";
  model.graph = std::move(ilm.graph);

  std::stringstream ss;
  const std::size_t bytes = write_macro_model(model, ss);
  EXPECT_GT(bytes, 100u);
  EXPECT_EQ(bytes, macro_model_size_bytes(model));
  const MacroModel back = read_macro_model(ss);
  EXPECT_EQ(back.design_name, "io");
  EXPECT_EQ(back.graph.num_live_nodes(), model.graph.num_live_nodes());
  EXPECT_EQ(back.graph.num_live_arcs(), model.graph.num_live_arcs());

  const auto sets = eval_sets(d, 55);
  const AccuracyReport rep =
      evaluate_accuracy(model.graph, back.graph, sets, {.cppr = true});
  EXPECT_EQ(rep.structural_mismatches, 0u);
  EXPECT_LT(rep.max_err_ps, 1e-5);  // text precision only
}

// Unmerged cell arcs share the library's tables, and the writer formats
// each shared table set once and copies its bytes after that. The text
// must be what formatting every arc's own copy gives.
TEST(Merge, ModelIoSharedTablesMatchOwnedCopies) {
  const Design d = test::make_small_design("shared", 6);
  const TimingGraph flat = build_timing_graph(d);
  MacroModel shared;
  shared.design_name = "shared";
  shared.graph = extract_ilm(flat).graph;
  MacroModel owned;
  owned.design_name = "shared";
  owned.graph = extract_ilm(flat).graph;

  std::set<const ElRf<Lut>*> distinct;
  std::size_t cell_arcs = 0;
  TimingGraph& g = owned.graph;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    GraphArc& arc = g.arc(a);
    if (arc.dead || arc.kind != GraphArcKind::kCell) continue;
    ++cell_arcs;
    distinct.insert(arc.delay);
    arc.delay = g.own_tables(*arc.delay);
    arc.out_slew = g.own_tables(*arc.out_slew);
  }
  ASSERT_LT(distinct.size(), cell_arcs) << "no shared tables to reuse";

  std::ostringstream a;
  std::ostringstream b;
  const std::size_t bytes = write_macro_model(shared, a);
  write_macro_model(owned, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(bytes, a.str().size());
  EXPECT_EQ(macro_model_size_bytes(shared), bytes);
  EXPECT_EQ(macro_model_size_bytes(owned), bytes);
}

TEST(Merge, RefusesHighFanProductPins) {
  const Design d = test::make_small_design("fp", 8);
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  MergeConfig tight;
  tight.max_fan_product = 1;
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  const MergeStats s1 = merge_insensitive_pins(ilm.graph, keep, tight);

  IlmResult ilm2 = extract_ilm(flat);
  MergeConfig loose;
  loose.max_fan_product = 16;
  std::vector<bool> keep2(ilm2.graph.num_nodes(), false);
  const MergeStats s2 = merge_insensitive_pins(ilm2.graph, keep2, loose);
  EXPECT_GT(s2.pins_removed, s1.pins_removed);
}

}  // namespace
}  // namespace tmm
