#include <gtest/gtest.h>

#include <sstream>

#include "fault/fault.hpp"
#include "flow/framework.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

/// Shared trained framework (training is the expensive part).
class FlowTest : public ::testing::Test {
 protected:
  static Framework& trained() {
    static Framework* fw = [] {
      FlowConfig cfg;
      cfg.cppr = true;
      cfg.data.ts.num_constraint_sets = 2;
      cfg.train.epochs = 80;
      auto* f = new Framework(cfg);
      std::vector<Design> designs;
      designs.push_back(test::make_tiny_design("t0", 40));
      designs.push_back(test::make_tiny_design("t1", 41));
      designs.push_back(test::make_small_design("t2", 42));
      f->train(designs);
      return f;
    }();
    return *fw;
  }
};

TEST_F(FlowTest, TrainingProducesModelAndData) {
  Framework& fw = trained();
  EXPECT_TRUE(fw.trained());
  // Re-train summary sanity on a fresh framework with one design.
  FlowConfig cfg;
  cfg.data.ts.num_constraint_sets = 1;
  cfg.train.epochs = 10;
  Framework small(cfg);
  std::vector<Design> designs;
  designs.push_back(test::make_tiny_design("s", 50));
  const TrainingSummary sum = small.train(designs);
  EXPECT_EQ(sum.designs, 1u);
  EXPECT_GT(sum.labeled_pins, 0u);
  EXPECT_GT(sum.positives, 0u);
  EXPECT_LT(sum.positives, sum.labeled_pins);
  EXPECT_GT(sum.mean_filtered_fraction, 0.0);
  EXPECT_GT(sum.report.epochs_run, 0u);
}

TEST_F(FlowTest, GeneratedMacroIsAccurateAndSmaller) {
  Framework& fw = trained();
  const Design d = test::make_small_design("eval", 99);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  EXPECT_LT(r.acc.max_err_ps, 5.0);
  EXPECT_GT(r.model_file_bytes, 0u);
  EXPECT_LT(r.gen.model_pins, r.gen.ilm_pins);
  EXPECT_GT(r.gen.pins_kept, 0u);
  EXPECT_GE(r.inference_seconds, 0.0);
  EXPECT_LT(r.inference_seconds, 5.0);  // paper: inference < 5 s
}

TEST_F(FlowTest, LabelAllRemainedModeMatchesReferenceAccuracy) {
  FlowConfig cfg = trained().config();
  cfg.label_all_remained = true;
  Framework fw(cfg);  // no training needed in this mode
  const Design d = test::make_small_design("eval2", 7);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  EXPECT_LT(r.acc.max_err_ps, 5.0);
  EXPECT_LT(r.gen.model_pins, r.gen.ilm_pins);
}

TEST_F(FlowTest, BaselinesRunThroughSameHarness) {
  Framework& fw = trained();
  const Design d = test::make_small_design("base", 3);
  const DesignResult ours = fw.run_design(d);
  const DesignResult itm = fw.run_itimerm(d);
  const DesignResult lib = fw.run_libabs(d);

  EXPECT_EQ(itm.acc.structural_mismatches, 0u);
  EXPECT_EQ(lib.acc.structural_mismatches, 0u);
  EXPECT_GT(itm.model_file_bytes, 0u);
  EXPECT_GT(lib.model_file_bytes, 0u);
  // iTimerM-like keeps accuracy comparable to ours.
  EXPECT_LT(itm.acc.max_err_ps, 10.0);
  // Every ILM-based model shrinks the ILM.
  EXPECT_LT(itm.gen.model_pins, itm.gen.ilm_pins);
  EXPECT_LT(lib.gen.model_pins, lib.gen.ilm_pins);
  (void)ours;
}

TEST_F(FlowTest, EtmIsTinyButLessAccurate) {
  FlowConfig cfg;
  cfg.cppr = false;  // ETM does not support CPPR (as in the paper)
  Framework fw(cfg);
  const Design d = test::make_tiny_design("etm", 4);
  const DesignResult etm = fw.run_etm(d);
  const DesignResult itm = fw.run_itimerm(d);
  EXPECT_GT(etm.model_file_bytes, 0u);
  EXPECT_LT(etm.model_file_bytes, itm.model_file_bytes);
  EXPECT_LT(etm.gen.model_pins, itm.gen.model_pins);
  EXPECT_EQ(etm.acc.structural_mismatches, 0u);
  // Context-independent characterization costs accuracy.
  EXPECT_GE(etm.acc.max_err_ps, itm.acc.max_err_ps);
}

TEST_F(FlowTest, PredictKeepHonorsCpprRule) {
  Framework& fw = trained();
  const Design d = test::make_small_design("cppr", 12);
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  const auto keep = fw.predict_keep(ilm.graph);
  for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n) {
    if (is_cppr_crucial(ilm.graph, n)) {
      EXPECT_TRUE(keep[n]);
    }
  }
}

TEST_F(FlowTest, ModelSurvivesSaveLoadViaFramework) {
  Framework& fw = trained();
  std::stringstream ss;
  fw.model().save(ss);
  GnnModel loaded = GnnModel::load(ss);
  FlowConfig cfg = fw.config();
  Framework fresh(cfg);
  fresh.set_model(std::move(loaded));
  const Design d = test::make_tiny_design("sl", 13);
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  const auto a = fw.predict_keep(ilm.graph);
  const auto b = fresh.predict_keep(ilm.graph);
  EXPECT_EQ(a, b);
}

std::vector<std::string> stage_names(const std::vector<obs::SpanTotal>& st) {
  std::vector<std::string> names;
  for (const obs::SpanTotal& t : st) names.push_back(t.name);
  return names;
}

/// Stage timings are the spans directly under the run's root span, one
/// name per stage; an untraced run has none and the same results. The
/// list is the same at every thread count: the stages that run on pool
/// threads open their spans inside the caller's stage span.
TEST_F(FlowTest, RunDesignStageTimingsAreTheRootSpansChildren) {
  std::stringstream weights;
  trained().model().save(weights);
  const std::string text = weights.str();
  const Design d = test::make_tiny_design("stages", 77);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    FlowConfig cfg = trained().config();
    cfg.threads = threads;
    Framework fw(cfg);
    std::stringstream in(text);
    fw.set_model(GnnModel::load(in));
    obs::reset_trace();
    obs::set_tracing_enabled(true);
    const DesignResult traced = fw.run_design(d);
    obs::set_tracing_enabled(false);
    obs::reset_trace();
    EXPECT_EQ(stage_names(traced.stage_timings),
              (std::vector<std::string>{"sta.graph_build", "macro.ilm",
                                        "gnn.infer", "macro.merge",
                                        "macro.size", "macro.evaluate"}));

    const DesignResult untraced = fw.run_design(d);
    EXPECT_TRUE(untraced.stage_timings.empty());
    EXPECT_EQ(untraced.acc.max_err_ps, traced.acc.max_err_ps);
    EXPECT_EQ(untraced.model_file_bytes, traced.model_file_bytes);
  }
}

TEST_F(FlowTest, TrainStageTimingsArePerDesignThenTraining) {
  FlowConfig cfg;
  cfg.data.ts.num_constraint_sets = 1;
  cfg.train.epochs = 5;
  std::vector<Design> designs;
  designs.push_back(test::make_tiny_design("ta", 51));
  designs.push_back(test::make_tiny_design("tb", 52));
  obs::reset_trace();
  obs::set_tracing_enabled(true);
  const TrainingSummary traced = Framework(cfg).train(designs);
  obs::set_tracing_enabled(false);
  obs::reset_trace();
  EXPECT_EQ(stage_names(traced.stage_timings),
            (std::vector<std::string>{"flow.train.design:ta",
                                      "flow.train.design:tb", "gnn.train"}));
  EXPECT_TRUE(Framework(cfg).train(designs).stage_timings.empty());
}

TEST_F(FlowTest, CpprOffModeWorks) {
  FlowConfig cfg;
  cfg.cppr = false;
  cfg.cppr_feature = false;
  cfg.data.ts.num_constraint_sets = 1;
  cfg.train.epochs = 30;
  Framework fw(cfg);
  std::vector<Design> designs;
  designs.push_back(test::make_tiny_design("nc", 60));
  fw.train(designs);
  const Design d = test::make_tiny_design("nc2", 61);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  EXPECT_LT(r.acc.max_err_ps, 5.0);
}

std::string saved_model(Framework& fw) {
  std::ostringstream os;
  fw.model().save(os);
  return os.str();
}

// GNN training runs one sample per task at FlowConfig::threads; the
// .gnn bytes must not depend on it.
TEST(FlowThreads, TrainWritesTheSameModelAtAnyThreadCount) {
  std::vector<Design> designs;
  designs.push_back(test::make_tiny_design("p0", 60));
  designs.push_back(test::make_small_design("p1", 61));
  designs.push_back(test::make_tiny_design("p2", 62));
  std::string want;
  for (const std::size_t threads : {1, 4}) {
    FlowConfig cfg;
    cfg.data.ts.num_constraint_sets = 1;
    cfg.train.epochs = 30;
    cfg.threads = threads;
    Framework fw(cfg);
    EXPECT_EQ(fw.config().train.threads, threads);
    static_cast<void>(fw.train(designs));
    if (threads == 1)
      want = saved_model(fw);
    else
      EXPECT_EQ(saved_model(fw), want);
  }
}

// A model reads exactly the flow's feature count: 9 with the is_CPPR
// feature, 8 without. Anything else is a configuration error, not an
// out-of-bounds weight read.
TEST(FlowModel, SetModelRefusesAMismatchedInputWidth) {
  for (const bool cppr_feature : {true, false}) {
    FlowConfig cfg;
    cfg.cppr_feature = cppr_feature;
    Framework fw(cfg);
    GnnModelConfig mcfg;
    mcfg.input_dim = cppr_feature ? kNumBasicFeatures : kNumFeaturesWithCppr;
    EXPECT_EQ(test::code_of([&] { fw.set_model(GnnModel(mcfg)); }),
              fault::ErrorCode::kConfig);
    EXPECT_FALSE(fw.trained());
    mcfg.input_dim = cppr_feature ? kNumFeaturesWithCppr : kNumBasicFeatures;
    fw.set_model(GnnModel(mcfg));
    EXPECT_TRUE(fw.trained());
  }
}

}  // namespace
}  // namespace tmm
