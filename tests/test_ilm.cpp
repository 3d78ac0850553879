#include <gtest/gtest.h>

#include "macro/evaluate.hpp"
#include "macro/ilm.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

class IlmOnDesign : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlmOnDesign, BoundaryTimingIsExact) {
  const Design d = test::make_small_design("ilm", GetParam());
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);

  Rng rng(GetParam() * 31 + 7);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < 3; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  for (bool cppr : {false, true}) {
    const AccuracyReport rep =
        evaluate_accuracy(flat, ilm.graph, sets, {.cppr = cppr});
    EXPECT_LT(rep.max_err_ps, 1e-6) << "cppr=" << cppr;
    EXPECT_EQ(rep.structural_mismatches, 0u);
  }
}

TEST_P(IlmOnDesign, DropsRegisterToRegisterLogic) {
  const Design d = test::make_small_design("ilm", GetParam());
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  EXPECT_LT(ilm.graph.num_live_nodes(), flat.num_live_nodes());
  EXPECT_GT(ilm.graph.num_live_nodes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlmOnDesign, ::testing::Values(1, 2, 3, 4));

TEST(Ilm, PreservesPortOrdinals) {
  const Design d = test::make_small_design();
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  ASSERT_EQ(ilm.graph.primary_inputs().size(),
            flat.primary_inputs().size());
  ASSERT_EQ(ilm.graph.primary_outputs().size(),
            flat.primary_outputs().size());
  for (std::uint32_t i = 0; i < flat.primary_inputs().size(); ++i) {
    const NodeId fp = flat.primary_inputs()[i];
    const NodeId ip = ilm.graph.primary_inputs()[i];
    ASSERT_NE(ip, kInvalidId);
    EXPECT_EQ(flat.node(fp).name, ilm.graph.node(ip).name);
  }
}

TEST(Ilm, KeepsCheckedFlopsAndTheirClockPaths) {
  const Design d = test::make_small_design();
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  // Every surviving check's clock pin must trace back to the clock root.
  ASSERT_NE(ilm.graph.clock_root(), kInvalidId);
  for (const auto& c : ilm.graph.checks()) {
    if (c.dead) continue;
    NodeId u = c.clock;
    std::size_t guard = 0;
    while (u != ilm.graph.clock_root() && guard++ < ilm.graph.num_nodes()) {
      const auto& fin = ilm.graph.fanin(u);
      ASSERT_FALSE(fin.empty())
          << "clock pin " << ilm.graph.node(c.clock).name
          << " lost its clock path";
      u = ilm.graph.arc(fin[0]).from;
    }
    EXPECT_EQ(u, ilm.graph.clock_root());
  }
}

TEST(Ilm, KeepSetContainsAllPorts) {
  const Design d = test::make_tiny_design();
  const TimingGraph flat = build_timing_graph(d);
  const auto keep = ilm_keep_set(flat);
  for (NodeId p : flat.primary_inputs()) EXPECT_TRUE(keep[p]);
  for (NodeId p : flat.primary_outputs()) EXPECT_TRUE(keep[p]);
}

TEST(Ilm, PureCombinationalDesignIsKeptWhole) {
  const Design d = test::make_buffer_chain(5);
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  // No registers: the interface logic is the whole design.
  EXPECT_EQ(ilm.graph.num_live_nodes(), flat.num_live_nodes());
  EXPECT_EQ(ilm.graph.num_live_arcs(), flat.num_live_arcs());
}

}  // namespace
}  // namespace tmm
