#include "macro/baselines.hpp"

#include "util/instrument.hpp"

namespace tmm {

namespace {

/// LUT resolution for merged chain arcs.
constexpr std::size_t kGridPoints = 7;

}  // namespace

std::vector<bool> libabs_keep_set(const TimingGraph& ilm) {
  // Tree-based reduction: the roots and leaves of maximal in-/out-trees
  // are exactly the pins with fanin > 1 or fanout > 1; chain interiors
  // (degree-1 pins) are merged. Boundary/FF/load-variant pins are
  // protected by merge legality regardless of this vote.
  std::vector<bool> keep(ilm.num_nodes(), false);
  for (NodeId n = 0; n < ilm.num_nodes(); ++n) {
    if (ilm.node(n).dead) continue;
    if (ilm.fanin(n).size() > 1 || ilm.fanout(n).size() > 1) keep[n] = true;
  }
  return keep;
}

MacroModel generate_libabs_model(const TimingGraph& flat,
                                 GenerationStats* stats) {
  Stopwatch sw;
  IlmResult ilm = extract_ilm(flat);
  const std::size_t ilm_pins = ilm.graph.num_live_nodes();
  const auto keep = libabs_keep_set(ilm.graph);
  std::size_t kept = 0;
  for (bool k : keep)
    if (k) ++kept;
  // Fixed coarse grids, no error-driven index selection: model the
  // original algorithm's form-based reduction (its accuracy gap in
  // Table 3 comes from exactly this).
  MergeConfig merge;
  merge.index.max_points = kGridPoints;
  merge.index.tolerance_ps = 0.0;
  merge.index.error_driven = false;
  merge_insensitive_pins(ilm.graph, keep, merge);

  MacroModel model;
  model.design_name = "libabs";
  model.graph = std::move(ilm.graph);
  if (stats) {
    stats->ilm_pins = ilm_pins;
    stats->model_pins = model.graph.num_live_nodes();
    stats->pins_kept = kept;
    stats->generation_seconds = sw.seconds();
    stats->generation_peak_rss = peak_rss_bytes();
  }
  return model;
}

}  // namespace tmm
