// Invariant-checker tests: each corrupted-graph fixture must fire
// exactly its rule, and the clean end-to-end flow must produce zero
// diagnostics (the `validate_stages` gate would throw otherwise).

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/design_lint.hpp"
#include "fault/fault.hpp"
#include "analysis/graph_lint.hpp"
#include "analysis/model_lint.hpp"
#include "flow/framework.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "sta/timing_graph.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

using analysis::LintReport;
using analysis::Severity;
namespace rule = analysis::rule;

NodeId add_named(TimingGraph& g, const std::string& name) {
  GraphNode node;
  node.name = name;
  return g.add_node(std::move(node));
}

/// At least one diagnostic fired and every diagnostic carries `id`.
void expect_only_rule(const LintReport& r, const char* id) {
  ASSERT_FALSE(r.empty()) << "expected rule " << id << " to fire";
  EXPECT_EQ(r.count(id), r.size()) << r.to_string();
}

ElRf<Lut> uniform_tables(double value) {
  ElRf<Lut> t;
  t.fill(Lut::table2d({1.0, 10.0}, {1.0, 20.0},
                      {value, value, value, value}));
  return t;
}

TEST(AnalysisGraphLint, CleanFlatGraphHasZeroDiagnostics) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  const LintReport r = analysis::lint_graph(g);
  EXPECT_TRUE(r.empty()) << r.to_string();
  EXPECT_NO_THROW(analysis::expect_clean(g));
  EXPECT_TRUE(analysis::lint_design(d).empty());
}

TEST(AnalysisGraphLint, InjectedCycleFiresG001WithPinByPinPath) {
  TimingGraph g;
  const NodeId a = add_named(g, "u1/Y");
  const NodeId b = add_named(g, "u2/Y");
  const NodeId c = add_named(g, "u3/Y");
  g.add_wire_arc(a, b, 1.0);
  g.add_wire_arc(b, c, 1.0);
  g.add_wire_arc(c, a, 1.0);  // closes the loop
  const LintReport r = analysis::lint_graph(g);
  expect_only_rule(r, rule::kCycle);
  const std::string msg = r.diagnostics().front().message;
  EXPECT_NE(msg.find("u1/Y"), std::string::npos) << msg;
  EXPECT_NE(msg.find("u2/Y"), std::string::npos) << msg;
  EXPECT_NE(msg.find("u3/Y"), std::string::npos) << msg;
  EXPECT_NE(msg.find(" -> "), std::string::npos) << msg;
  EXPECT_THROW(analysis::expect_clean(g), std::runtime_error);
}

TEST(AnalysisGraphLint, LiveArcIntoDeadNodeFiresG002) {
  TimingGraph g;
  const NodeId a = add_named(g, "a");
  const NodeId b = add_named(g, "b");
  const NodeId c = add_named(g, "c");
  g.add_wire_arc(a, b, 1.0);
  g.kill_node(c);
  g.add_wire_arc(b, c, 1.0);  // live arc into a dead node
  expect_only_rule(analysis::lint_graph(g), rule::kDanglingArc);
}

TEST(AnalysisGraphLint, LiveCheckOnDeadPinFiresG003) {
  TimingGraph g;
  const NodeId ck = add_named(g, "ff/CK");
  const NodeId d = add_named(g, "ff/D");
  const ElRf<Lut>* guard = g.own_tables([] {
    ElRf<Lut> t;
    t.fill(Lut::scalar(5.0));
    return t;
  }());
  g.kill_node(d);
  g.add_check(ck, d, /*is_setup=*/true, guard);  // references a dead pin
  expect_only_rule(analysis::lint_graph(g), rule::kDanglingCheck);
}

TEST(AnalysisGraphLint, NanLutFiresL001) {
  // L001's trigger is now unrepresentable through the public API: the
  // Lut factories reject non-finite surfaces with a structured numeric
  // error before a graph can ever own such a table, so the lint rule is
  // pure defense in depth (e.g. against post-construction corruption).
  EXPECT_EQ(test::code_of([] { uniform_tables(std::nan("")); }),
            fault::ErrorCode::kNumeric);
}

TEST(AnalysisGraphLint, DuplicatePortOrdinalFiresB001) {
  TimingGraph g;
  const NodeId a = add_named(g, "in0");
  const NodeId b = add_named(g, "in1");
  g.set_primary_input(a, 0, /*is_clock=*/false);
  g.set_primary_input(b, 0, /*is_clock=*/false);  // ordinal collision
  expect_only_rule(analysis::lint_graph(g), rule::kBoundaryOrdinal);
}

TEST(AnalysisGraphLint, GappedPortOrdinalFiresB001) {
  TimingGraph g;
  const NodeId a = add_named(g, "out1");
  g.set_primary_output(a, 1);  // ordinal 0 never registered
  expect_only_rule(analysis::lint_graph(g), rule::kBoundaryOrdinal);
}

TEST(AnalysisGraphLint, UnreachableFfClockFiresB002) {
  TimingGraph g;
  const NodeId root = add_named(g, "clk");
  const NodeId ck = add_named(g, "ff/CK");
  g.set_primary_input(root, 0, /*is_clock=*/true);
  g.node(ck).is_ff_clock = true;  // no arc from the clock root
  expect_only_rule(analysis::lint_graph(g), rule::kClockReach);
}

TEST(AnalysisGraphLint, AttachedPoLoadOutOfRangeFiresG004) {
  TimingGraph g;
  const NodeId a = add_named(g, "drv/Y");
  const NodeId po = add_named(g, "out0");
  g.set_primary_output(po, 0);
  g.add_wire_arc(a, po, 1.0);
  g.node(a).attached_po_loads.push_back(7);  // only ordinal 0 exists
  expect_only_rule(analysis::lint_graph(g), rule::kPoLoadRange);
}

TEST(AnalysisGraphLint, NullTablesOnLiveCellArcFiresG005) {
  TimingGraph g;
  const NodeId a = add_named(g, "a");
  const NodeId b = add_named(g, "b");
  g.add_cell_arc(a, b, ArcSense::kPositiveUnate, nullptr, nullptr);
  expect_only_rule(analysis::lint_graph(g), rule::kNullTables);
}

TEST(AnalysisGraphLint, GrossNonMonotoneOwnedDelayWarnsL003) {
  TimingGraph g;
  const NodeId a = add_named(g, "a");
  const NodeId b = add_named(g, "b");
  // Owned (re-characterized) delay that gets 40 ps *faster* with load.
  ElRf<Lut> t;
  t.fill(Lut::table2d({1.0, 10.0}, {1.0, 20.0}, {50.0, 10.0, 50.0, 10.0}));
  const ElRf<Lut>* delay = g.own_tables(std::move(t));
  const ElRf<Lut>* slew = g.own_tables(uniform_tables(20.0));
  g.add_cell_arc(a, b, ArcSense::kPositiveUnate, delay, slew);
  const LintReport r = analysis::lint_graph(g);
  expect_only_rule(r, rule::kLutNonMonotone);
  EXPECT_EQ(r.errors(), 0u);  // warning severity: does not fail the gate
  EXPECT_TRUE(r.clean());
  EXPECT_NO_THROW(analysis::expect_clean(g));
  // Library-shared (non-owned) tables are exempt from L003.
  TimingGraph g2;
  const NodeId a2 = add_named(g2, "a");
  const NodeId b2 = add_named(g2, "b");
  g2.add_cell_arc(a2, b2, ArcSense::kPositiveUnate, delay, slew);
  EXPECT_TRUE(analysis::lint_graph(g2).empty());
}

TEST(AnalysisGraphLint, TopoOrderCycleErrorNamesAPin) {
  TimingGraph g;
  const NodeId a = add_named(g, "cyc/A");
  const NodeId b = add_named(g, "cyc/B");
  g.add_wire_arc(a, b, 1.0);
  g.add_wire_arc(b, a, 1.0);
  try {
    g.topo_order();
    FAIL() << "topo_order did not throw on a cyclic graph";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cyc/A"), std::string::npos) << msg;
    EXPECT_NE(msg.find(" -> "), std::string::npos) << msg;
  }
}

TEST(AnalysisDesignLint, UnconnectedGateInputFiresD001) {
  const Library& lib = test::shared_library();
  Design d("corrupt", &lib);
  d.add_gate("g0", lib.cell_id("BUF_X1"));  // inputs left dangling
  const LintReport r = analysis::lint_design(d);
  expect_only_rule(r, rule::kUnconnectedInput);
}

TEST(AnalysisModelLint, IlmAndMergedGraphsStayClean) {
  const Design d = test::make_small_design();
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  EXPECT_NO_THROW(analysis::expect_clean(ilm.graph));
  // Merge everything the rules allow: the invariants must survive the
  // most aggressive reduction.
  merge_insensitive_pins(ilm.graph,
                         std::vector<bool>(ilm.graph.num_nodes(), false));
  const LintReport r = analysis::lint_graph(ilm.graph);
  EXPECT_EQ(r.errors(), 0u) << r.to_string();

  MacroModel model;
  model.design_name = d.name();
  model.graph = std::move(ilm.graph);
  const LintReport mr = analysis::lint_model_against(model, d);
  EXPECT_EQ(mr.errors(), 0u) << mr.to_string();
}

TEST(AnalysisModelLint, LostBoundaryPinFiresM001) {
  const Design d = test::make_tiny_design();
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  MacroModel model;
  model.design_name = d.name();
  model.graph = std::move(ilm.graph);
  // Corrupt: kill a primary output after generation.
  model.graph.node(model.graph.primary_outputs().front()).dead = true;
  const LintReport r = analysis::lint_model_against(model, d);
  EXPECT_GT(r.count(rule::kBoundaryLost), 0u) << r.to_string();
  EXPECT_FALSE(r.clean());
}

TEST(AnalysisModelLint, UnbakedMergedArcFiresM002) {
  TimingGraph g;
  const NodeId a = add_named(g, "a");
  const NodeId b = add_named(g, "b");
  // 1-D surface = re-characterized shape, but baked_derate left false.
  ElRf<Lut> t;
  t.fill(Lut::table1d({1.0, 10.0}, {5.0, 9.0}));
  const ElRf<Lut>* tables = g.own_tables(std::move(t));
  g.add_cell_arc(a, b, ArcSense::kPositiveUnate, tables, tables);
  MacroModel model;
  model.graph = std::move(g);
  const LintReport r = analysis::lint_model(model);
  expect_only_rule(r, rule::kBakedDerate);
  // Setting the flag resolves it.
  model.graph.arc(0).baked_derate = true;
  EXPECT_TRUE(analysis::lint_model(model).empty());
}

TEST(AnalysisFlow, ValidatedFlowRunsCleanEndToEnd) {
  FlowConfig cfg;
  cfg.validate_stages = true;
  cfg.train.epochs = 10;
  Framework fw(cfg);
  std::vector<Design> training;
  training.push_back(test::make_tiny_design("t1", 5));
  training.push_back(test::make_tiny_design("t2", 6));
  fw.train(training);
  const Design d = test::make_small_design();
  // Every stage gate (ILM -> merge/index selection -> model) would
  // throw on a dirty graph; reaching the result is the assertion.
  const DesignResult r = fw.run_design(d);
  const LintReport report = analysis::lint_model_against(r.model, d);
  EXPECT_EQ(report.errors(), 0u) << report.to_string();
}

}  // namespace
}  // namespace tmm
