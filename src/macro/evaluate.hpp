#pragma once
// Model accuracy evaluation (Fig. 2): analyze the reference (flat)
// design and the macro model under the same boundary-constraint sets
// and compare boundary slew/at/rat/slack.

#include <span>

#include "sta/propagation.hpp"

namespace tmm {

struct AccuracyReport {
  double max_err_ps = 0.0;  ///< "Max Error" column
  double avg_err_ps = 0.0;  ///< "Avg. Error" column
  std::size_t constraint_sets = 0;
  std::size_t compared_values = 0;
  std::size_t structural_mismatches = 0;  ///< finite-vs-infinite entries
  double usage_seconds = 0.0;  ///< model analysis time ("Usage Runtime")
};

/// Analyze both graphs under every constraint set and report the max and
/// mean absolute boundary differences in ps. `options` selects the
/// timing mode: CPPR on or off (Tables 3 vs 5), AOCV.
AccuracyReport evaluate_accuracy(const TimingGraph& reference,
                                 const TimingGraph& model,
                                 std::span<const BoundaryConstraints> sets,
                                 const Sta::Options& options);

}  // namespace tmm
