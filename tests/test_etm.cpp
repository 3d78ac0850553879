#include <gtest/gtest.h>

#include "macro/baselines.hpp"
#include "macro/model_io.hpp"
#include "macro/evaluate.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

EtmConfig fast_etm() {
  EtmConfig cfg;
  cfg.slew_samples = {2.0, 10.0, 40.0};
  cfg.load_samples = {1.0, 8.0};
  return cfg;
}

TEST(Etm, ModelContainsOnlyPortsAndEndpoints) {
  const Design d = test::make_tiny_design("etm", 70);
  const TimingGraph flat = build_timing_graph(d);
  GenerationStats gen;
  const MacroModel model = generate_etm_model(flat, fast_etm(), &gen);
  // Ports + at most one virtual endpoint per data PI.
  const std::size_t ports =
      d.primary_inputs().size() + d.primary_outputs().size();
  EXPECT_LE(model.graph.num_live_nodes(),
            ports + d.primary_inputs().size());
  EXPECT_GE(model.graph.num_live_nodes(), ports);
  EXPECT_GT(gen.generation_seconds, 0.0);
  EXPECT_LT(model.graph.num_live_nodes(), flat.num_live_nodes() / 4);
}

TEST(Etm, PreservesPortOrdinals) {
  const Design d = test::make_tiny_design("etm", 71);
  const TimingGraph flat = build_timing_graph(d);
  const MacroModel model = generate_etm_model(flat, fast_etm());
  ASSERT_EQ(model.graph.primary_inputs().size(),
            flat.primary_inputs().size());
  ASSERT_EQ(model.graph.primary_outputs().size(),
            flat.primary_outputs().size());
  EXPECT_NE(model.graph.clock_root(), kInvalidId);
}

TEST(Etm, ApproximatesBoundaryTimingWithoutStructuralLoss) {
  const Design d = test::make_small_design("etm", 72);
  const TimingGraph flat = build_timing_graph(d);
  const MacroModel model = generate_etm_model(flat, fast_etm());
  Rng rng(5);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < 2; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  const AccuracyReport rep =
      evaluate_accuracy(flat, model.graph, sets, {.cppr = false});
  EXPECT_EQ(rep.structural_mismatches, 0u);
  // Port-to-port models carry real context error, but must stay within
  // the same timescale as the paths themselves.
  EXPECT_LT(rep.max_err_ps, 150.0);
  EXPECT_GT(rep.compared_values, 0u);
}

TEST(Etm, MuchSmallerThanIlmBasedModel) {
  const Design d = test::make_small_design("etm", 73);
  const TimingGraph flat = build_timing_graph(d);
  GenerationStats etm_gen, itm_gen;
  MacroModel etm = generate_etm_model(flat, fast_etm(), &etm_gen);
  MacroModel itm = generate_itimerm_model(flat, {}, &itm_gen);
  EXPECT_LT(macro_model_size_bytes(etm), macro_model_size_bytes(itm) / 2);
  // ETM generation re-analyzes the ILM many times.
  EXPECT_GT(etm_gen.generation_seconds, itm_gen.generation_seconds);
}

TEST(Etm, SenseSplitArcsAreUnate) {
  const Design d = test::make_tiny_design("etm", 74);
  const TimingGraph flat = build_timing_graph(d);
  const MacroModel model = generate_etm_model(flat, fast_etm());
  std::size_t arcs = 0;
  for (ArcId a = 0; a < model.graph.num_arcs(); ++a) {
    const auto& arc = model.graph.arc(a);
    if (arc.dead || arc.kind != GraphArcKind::kCell) continue;
    EXPECT_NE(arc.sense, ArcSense::kNonUnate);
    ++arcs;
  }
  EXPECT_GT(arcs, 0u);
}

}  // namespace
}  // namespace tmm
