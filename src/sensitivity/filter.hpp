#pragma once
// Insensitive-pins filtering (Section 4.2, Fig. 7): propagate two slew
// values (t_min, t_max) from every PI; by the shielding effect the slew
// difference (SD) decays with logic depth, and pins with small SD have
// subtle influence on boundary timing. Pins whose *standardized* SD
// falls below a loose threshold are excluded from the expensive TS
// evaluation flow. Last-stage pins and pins electrically tied to output
// nets are always remained (their timing is load-variant).
//
// The threshold is deliberately imprecise: it only prunes the TS
// workload, so model quality does not depend on it (the paper reports
// never tuning it; neither do we).

#include <vector>

#include "sta/timing_graph.hpp"

namespace tmm {

struct FilterConfig {
  /// Pins with standardized SD (z-score) below this are filtered out.
  double z_threshold = -0.25;
};

struct FilterResult {
  std::vector<double> sd;    ///< raw slew difference per node (ps)
  std::vector<double> sd_z;  ///< standardized SD
  /// true = remained (potentially sensitive, goes to TS evaluation).
  std::vector<bool> remained;
  std::size_t live_pins = 0;
  std::size_t num_remained = 0;
  double filtered_fraction() const {
    return live_pins == 0 ? 0.0
                          : 1.0 - static_cast<double>(num_remained) /
                                      static_cast<double>(live_pins);
  }
};

FilterResult filter_insensitive_pins(const TimingGraph& g,
                                     const FilterConfig& cfg = {});

}  // namespace tmm
