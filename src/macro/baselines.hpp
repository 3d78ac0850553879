#pragma once
// Reimplementations of the comparison points of Tables 3 and 5, from
// their published descriptions (the original binaries are closed):
//
//  * iTimerM [5]  — ILM-based; propagates min/max slews through the
//    graph and preserves pins whose slew range exceeds a user-defined
//    tolerance; merged arcs use the interpolation-error-minimizing
//    index selection. The most accurate prior work.
//  * LibAbs-like [3,4] — ILM-based tree reduction; preserves the joints
//    (roots/leaves of maximal in-/out-trees, i.e. pins with fanin or
//    fanout > 1) and merges pure chains with fixed, coarse LUT grids
//    (no error-driven index selection) — larger models, larger errors.
//  * ATM-like [6] — ETM-based; characterizes context-independent
//    port-to-port timing arcs plus per-input virtual check endpoints by
//    repeated single-active-port analyses of the ILM. Tiny models, much
//    larger errors and generation times, and no CPPR support.

#include "macro/ilm.hpp"
#include "macro/macro_model.hpp"
#include "macro/merge.hpp"
#include "sta/constraints.hpp"

namespace tmm {

// ---------------------------------------------------------------- iTimerM
struct ITimerMConfig {
  /// Keep multi-fanout clock-network pins (iTimerC-style CPPR support);
  /// enabled by the flow when analyzing in CPPR mode.
  bool protect_cppr = true;
  MergeConfig merge;
};

/// Keep-set over the ILM graph: pins whose slew range, propagated from
/// a 2 ps and a 60 ps boundary slew, exceeds 0.4 ps.
std::vector<bool> itimerm_keep_set(const TimingGraph& ilm,
                                   const ITimerMConfig& cfg);

MacroModel generate_itimerm_model(const TimingGraph& flat,
                                  const ITimerMConfig& cfg = {},
                                  GenerationStats* stats = nullptr);

// ---------------------------------------------------------------- LibAbs
std::vector<bool> libabs_keep_set(const TimingGraph& ilm);

/// Merged chain arcs get 7-point LUT grids placed evenly (form-based
/// reduction has no error-driven selection step).
MacroModel generate_libabs_model(const TimingGraph& flat,
                                 GenerationStats* stats = nullptr);

// ------------------------------------------------------------------- ATM
/// Characterization grids of the port-to-port arcs. The ports that are
/// not being characterized sit at a nominal 10 ps slew and 4 fF load,
/// under a 1000 ps clock period.
struct EtmConfig {
  std::vector<double> slew_samples{2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 100.0};
  std::vector<double> load_samples{1.0, 4.0, 8.0, 12.0};
};

MacroModel generate_etm_model(const TimingGraph& flat,
                              const EtmConfig& cfg = {},
                              GenerationStats* stats = nullptr);

}  // namespace tmm
