#include "sensitivity/training_data.hpp"

namespace tmm {

SensitivityData generate_training_data(const TimingGraph& ilm,
                                       const TrainingDataConfig& cfg) {
  SensitivityData out;
  out.filter = filter_insensitive_pins(ilm, cfg.filter);
  out.ts = evaluate_timing_sensitivity(ilm, out.filter.remained, cfg.ts);

  out.labels.assign(ilm.num_nodes(), 0.0f);
  for (NodeId n = 0; n < ilm.num_nodes(); ++n) {
    if (ilm.node(n).dead) continue;
    bool positive = out.ts.ts[n] > cfg.ts_zero_epsilon;
    if (cfg.cppr_labels && is_cppr_crucial(ilm, n)) positive = true;
    if (positive) {
      out.labels[n] = 1.0f;
      ++out.positives;
    }
  }
  return out;
}

}  // namespace tmm
