#include <cmath>

#include "macro/baselines.hpp"

#include "sta/propagation.hpp"
#include "util/instrument.hpp"

namespace tmm {

namespace {

constexpr double kSlewMinPs = 2.0;   ///< min boundary slew propagated
constexpr double kSlewMaxPs = 60.0;  ///< max boundary slew propagated
/// Slew-range threshold above which a pin is kept.
constexpr double kTolerancePs = 0.4;
constexpr double kPoLoadFf = 4.0;

}  // namespace

std::vector<bool> itimerm_keep_set(const TimingGraph& ilm,
                                   const ITimerMConfig& cfg) {
  const auto slew_lo = propagate_slew_only(ilm, kSlewMinPs, kPoLoadFf);
  const auto slew_hi = propagate_slew_only(ilm, kSlewMaxPs, kPoLoadFf);
  std::vector<bool> keep(ilm.num_nodes(), false);
  for (NodeId n = 0; n < ilm.num_nodes(); ++n) {
    if (ilm.node(n).dead) continue;
    const double lo = slew_lo[n];
    const double hi = slew_hi[n];
    if (!std::isfinite(lo) || !std::isfinite(hi)) continue;
    if (hi - lo > kTolerancePs) keep[n] = true;
  }
  if (cfg.protect_cppr) {
    for (NodeId n = 0; n < ilm.num_nodes(); ++n)
      if (is_cppr_crucial(ilm, n)) keep[n] = true;
  }
  return keep;
}

MacroModel generate_itimerm_model(const TimingGraph& flat,
                                  const ITimerMConfig& cfg,
                                  GenerationStats* stats) {
  Stopwatch sw;
  IlmResult ilm = extract_ilm(flat);
  const std::size_t ilm_pins = ilm.graph.num_live_nodes();
  const auto keep = itimerm_keep_set(ilm.graph, cfg);
  std::size_t kept = 0;
  for (bool k : keep)
    if (k) ++kept;
  merge_insensitive_pins(ilm.graph, keep, cfg.merge);

  MacroModel model;
  model.design_name = "itimerm";
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
