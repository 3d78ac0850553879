#pragma once
// Training-data generation flow (Fig. 8): ILM capture -> insensitive
// pins filtering -> TS evaluation on the remained pins -> {0,1} labels.
//
// Label rule (Section 5.1): label(pin) = 1 iff TS > 0. In CPPR mode,
// multi-fan-out pins of the clock network are additionally labeled 1 —
// they are the potential common points of launch/capture clock paths,
// and merging them coarsens the pessimism credit.

#include "sensitivity/filter.hpp"
#include "sensitivity/ts_eval.hpp"

namespace tmm {

struct TrainingDataConfig {
  FilterConfig filter;
  TsConfig ts;
  /// Apply the CPPR labeling rule for clock-network branch pins.
  bool cppr_labels = true;
  /// TS at or below this is "zero" (floating-point noise floor; the
  /// paper's label rule is TS != 0).
  double ts_zero_epsilon = 1e-9;
};

struct SensitivityData {
  FilterResult filter;
  TsResult ts;
  /// Per-node {0,1} training label.
  std::vector<float> labels;
  std::size_t positives = 0;
};

/// Run the full Fig. 8 flow on an ILM graph. The CPPR label rule is
/// is_cppr_crucial (sta/timing_graph.hpp, included through here).
SensitivityData generate_training_data(const TimingGraph& ilm,
                                       const TrainingDataConfig& cfg);

}  // namespace tmm
