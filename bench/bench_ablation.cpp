// Ablation bench for the design choices behind the macro generator
// (not a paper table — this justifies the knobs DESIGN.md documents):
//
//   A. merge legality: single-fanin-only (slew-exact) vs unrestricted
//      cross-product merging;
//   B. LUT index selection: error-driven greedy vs fixed grids, at
//      several point budgets;
//   C. insensitive-pins filter threshold: the paper's claim that the
//      threshold "is not required to be precise".
//
// Each row reports boundary accuracy and model size on the same design
// under the label-all-remained keep-set (so the GNN is not a variable).

#include <cstdio>

#include "bench_common.hpp"
#include "macro/ilm.hpp"
#include "macro/model_io.hpp"
#include "sensitivity/training_data.hpp"

using namespace tmm;
using namespace tmm::bench;

namespace {

struct Outcome {
  double max_err = 0.0;
  double avg_err = 0.0;
  std::size_t pins = 0;
  std::size_t bytes = 0;
};

Outcome run_variant(const Design& d, const TimingGraph& flat,
                    const MergeConfig& merge, double z_threshold) {
  IlmResult ilm = extract_ilm(flat);
  FilterConfig fcfg;
  fcfg.z_threshold = z_threshold;
  const FilterResult fr = filter_insensitive_pins(ilm.graph, fcfg);
  std::vector<bool> keep(fr.remained.begin(), fr.remained.end());
  for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n)
    if (is_cppr_crucial(ilm.graph, n)) keep[n] = true;
  merge_insensitive_pins(ilm.graph, keep, merge);

  Rng rng(0xAB1A);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < 3; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  const AccuracyReport rep =
      evaluate_accuracy(flat, ilm.graph, sets, {.cppr = true});
  MacroModel model;
  model.design_name = d.name();
  model.graph = std::move(ilm.graph);
  return {rep.max_err_ps, rep.avg_err_ps, model.graph.num_live_nodes(),
          macro_model_size_bytes(model)};
}

}  // namespace

int main() {
  const std::size_t scale = env_scale("TMM_TEST_SCALE", 100);
  std::printf("== Ablations: merge legality, index selection, filter "
              "threshold (vga_lcd at 1/%zu TAU scale) ==\n",
              scale);
  const Library lib = generate_library();
  const auto suite = tau_testing_suite(lib, scale);
  const Design d = make_design(suite[1]);  // vga_lcd_iccad_eval
  const TimingGraph flat = build_timing_graph(d);
  std::printf("design %s: %zu pins\n", d.name().c_str(), d.num_pins());

  AsciiTable table({"Variant", "Max Err (ps)", "Avg Err (ps)", "Pins",
                    "Size (KB)"});
  auto row = [&](const std::string& name, const Outcome& o) {
    table.add_row({name, AsciiTable::num(o.max_err, 4),
                   AsciiTable::num(o.avg_err, 4),
                   AsciiTable::integer(static_cast<long long>(o.pins)),
                   fmt_size_kb(o.bytes)});
  };

  // A. merge legality.
  {
    MergeConfig base;
    row("merge: single-fanin only (default)",
        run_variant(d, flat, base, FilterConfig{}.z_threshold));
    MergeConfig cross;
    cross.single_fanin_only = false;
    cross.max_fan_product = 8;
    row("merge: cross-product allowed",
        run_variant(d, flat, cross, FilterConfig{}.z_threshold));
  }
  table.add_separator();

  // B. index selection.
  for (const std::size_t points : {4u, 5u, 7u, 9u}) {
    for (const bool greedy : {true, false}) {
      MergeConfig m;
      m.index.max_points = points;
      m.index.error_driven = greedy;
      char name[96];
      std::snprintf(name, sizeof(name), "index: %zu points, %s",
                    static_cast<std::size_t>(points),
                    greedy ? "error-driven" : "fixed grid");
      row(name, run_variant(d, flat, m, FilterConfig{}.z_threshold));
    }
  }
  table.add_separator();

  // C. filter threshold sweep.
  for (const double z : {-1.0, -0.5, -0.25, 0.0, 0.5}) {
    char name[64];
    std::snprintf(name, sizeof(name), "filter: z-threshold %+.2f", z);
    row(name, run_variant(d, flat, MergeConfig{}, z));
  }

  std::printf("%s", table.to_string().c_str());
  std::printf("\nExpected: cross-product merging loses accuracy for little "
              "size benefit; error-driven selection dominates fixed grids "
              "at equal budgets; the filter threshold moves size slightly "
              "but never accuracy (the paper's 'threshold is not required "
              "to be precise').\n");
  return 0;
}
