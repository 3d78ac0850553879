// Macro generation on several threads: merged-arc composition, the
// accuracy runs and the model-size count give the same model, the same
// report and the same index.* metrics at every thread count.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "macro/evaluate.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "macro/model_io.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

/// Large enough for a few hundred merged chains, non-unate ones among
/// them (XOR/MUX arcs).
Design parallel_design(std::uint64_t seed) {
  DesignGenConfig cfg;
  cfg.name = "par";
  cfg.seed = seed;
  cfg.num_data_inputs = 12;
  cfg.num_outputs = 12;
  cfg.num_flops = 24;
  cfg.levels = 6;
  cfg.gates_per_level = 24;
  return generate_design(test::shared_library(), cfg);
}

/// The index.* metrics one merge observed, sums to the bit.
struct IndexMetrics {
  std::uint64_t selections = 0;
  std::uint64_t points_count = 0;
  std::uint64_t points_sum = 0;
  std::uint64_t residual_count = 0;
  std::uint64_t residual_sum = 0;

  friend bool operator==(const IndexMetrics&, const IndexMetrics&) = default;
};

IndexMetrics read_index_metrics() {
  constexpr double kPointBounds[] = {2, 4, 8, 16, 32};
  constexpr double kErrBounds[] = {0.01, 0.1, 0.5, 1.0, 5.0};
  const obs::Histogram& points = obs::histogram("index.points", kPointBounds);
  const obs::Histogram& residual =
      obs::histogram("index.residual_err_ps", kErrBounds);
  return {obs::counter("index.selections").value(), points.count(),
          std::bit_cast<std::uint64_t>(points.sum()), residual.count(),
          std::bit_cast<std::uint64_t>(residual.sum())};
}

struct MergedModel {
  MacroModel model;
  std::string text;
  IndexMetrics metrics;
};

MergedModel merge_at(const TimingGraph& flat, const MergeConfig& cfg,
                     std::size_t threads) {
  IlmResult ilm = extract_ilm(flat);
  const std::vector<bool> keep(ilm.graph.num_nodes(), false);
  obs::reset_metrics();
  merge_insensitive_pins(ilm.graph, keep, cfg, threads);
  MergedModel out;
  out.metrics = read_index_metrics();
  out.model.design_name = "par";
  out.model.graph = std::move(ilm.graph);
  std::ostringstream os;
  write_macro_model(out.model, os);
  out.text = os.str();
  return out;
}

TEST(MergeParallel, ThreadCountsIdentical) {
  const TimingGraph flat = build_timing_graph(parallel_design(11));
  MergeConfig aocv;
  aocv.aocv.enabled = true;
  // Three-point tables pass the storage gate for non-unate chains, which
  // materialize as a positive- and a negative-unate arc pair.
  MergeConfig small;
  small.index.max_points = 3;
  for (const MergeConfig& cfg : {MergeConfig{}, aocv, small}) {
    SCOPED_TRACE("max_points " + std::to_string(cfg.index.max_points) +
                 (cfg.aocv.enabled ? " aocv" : ""));
    const MergedModel serial = merge_at(flat, cfg, 1);
    EXPECT_GT(serial.metrics.selections, 50u);
    std::map<std::pair<NodeId, NodeId>, unsigned> senses;
    for (ArcId a = 0; a < serial.model.graph.num_arcs(); ++a) {
      const GraphArc& arc = serial.model.graph.arc(a);
      if (!arc.dead && arc.baked_derate)
        senses[{arc.from, arc.to}] |= 1u << static_cast<unsigned>(arc.sense);
    }
    std::size_t split = 0;
    for (const auto& [pins, mask] : senses) split += mask == 3u ? 1 : 0;
    if (cfg.index.max_points == 3) {
      EXPECT_GT(split, 0u);
    }
    for (const std::size_t threads : {2, 4}) {
      const MergedModel par = merge_at(flat, cfg, threads);
      EXPECT_EQ(par.text, serial.text) << "threads " << threads;
      EXPECT_TRUE(par.metrics == serial.metrics) << "threads " << threads;
    }
  }
}

TEST(EvaluateParallel, ThreadCountsBitIdentical) {
  const Design d = parallel_design(12);
  Rng rng(31);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < 5; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  // Fresh graphs per run: their lazy adjacency and topological-order
  // caches start cold, as in the flow, so the parallel runs are the
  // first to need them.
  auto evaluate_at = [&](std::size_t threads, bool cppr) {
    const TimingGraph flat = build_timing_graph(d);
    IlmResult ilm = extract_ilm(build_timing_graph(d));
    merge_insensitive_pins(ilm.graph,
                           std::vector<bool>(ilm.graph.num_nodes(), false));
    Sta::Options opt{.cppr = cppr};
    // Small enough that one range's engines would run levels in parallel.
    opt.parallel_min_nodes = 16;
    opt.threads = threads;
    return evaluate_accuracy(flat, ilm.graph, sets, opt);
  };
  for (const bool cppr : {true, false}) {
    const AccuracyReport serial = evaluate_at(1, cppr);
    EXPECT_GT(serial.max_err_ps, 0.0);
    for (const std::size_t threads : {2, 4, 8}) {
      const AccuracyReport par = evaluate_at(threads, cppr);
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(par.max_err_ps),
                std::bit_cast<std::uint64_t>(serial.max_err_ps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(par.avg_err_ps),
                std::bit_cast<std::uint64_t>(serial.avg_err_ps));
      EXPECT_EQ(par.constraint_sets, serial.constraint_sets);
      EXPECT_EQ(par.compared_values, serial.compared_values);
      EXPECT_EQ(par.structural_mismatches, serial.structural_mismatches);
    }
  }
}

TEST(ModelSizeParallel, ThreadCountsCountTheWrittenBytes) {
  const TimingGraph flat = build_timing_graph(parallel_design(13));
  const MergedModel m = merge_at(flat, MergeConfig{}, 1);
  for (const std::size_t threads : {1, 2, 4})
    EXPECT_EQ(macro_model_size_bytes(m.model, threads), m.text.size())
        << "threads " << threads;
  // Fewer arcs than ranges.
  MacroModel tiny;
  tiny.design_name = "tiny";
  tiny.graph = build_timing_graph(test::make_buffer_chain(2));
  std::ostringstream os;
  write_macro_model(tiny, os);
  EXPECT_EQ(macro_model_size_bytes(tiny, 4), os.str().size());
}

}  // namespace
}  // namespace tmm
