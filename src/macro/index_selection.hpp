#pragma once
// Lookup-table index selection (Section 5.2): given a densely sampled
// exact function, pick the small set of index points whose piecewise-
// linear interpolation minimizes the timing error — the method of
// iTimerM [5] that our framework reuses after serial/parallel merging.
//
// Selection is greedy: start from the interval endpoints, repeatedly add
// the candidate point with the largest current interpolation error until
// the budget is exhausted or the worst error drops below tolerance.
// Several functions sharing one axis (delay + slew, all early/late x
// rise/fall corners, every load column) are selected jointly so a merged
// arc needs only one index vector.
//
// The greedy loop keeps each candidate's worst error over all functions
// and, after an insertion, recomputes only the candidates inside the one
// segment it split — the same error expression, the same ascending scan
// and strict > as a full rescan, so the same points win. The last
// maximum the loop finds is the residual of the final grid. Selection
// observes no metrics itself: callers that compose tables on several
// threads observe the results in a fixed order (observe_selection).

#include <cstddef>
#include <span>
#include <vector>

namespace tmm {

struct IndexSelectionConfig {
  /// Maximum number of selected index points per axis.
  std::size_t max_points = 7;
  /// Stop early once the worst interpolation error (ps) is below this.
  double tolerance_ps = 1e-4;
  /// When false, skip the greedy error-driven search and place the
  /// index points evenly over the candidate axis (how form-based
  /// reduction tools without iTimerM's selection step behave).
  bool error_driven = true;
};

/// The chosen positions and what they leave.
struct IndexSelection {
  /// Indices into the candidate axis, ascending; always the first and
  /// last candidate.
  std::vector<std::size_t> positions;
  /// Worst interpolation error (ps) over every function and candidate
  /// under `positions`.
  double residual_ps = 0.0;
};

/// Select positions (indices into `xs`) such that linearly interpolating
/// each function in `funcs` (each a vector of values parallel to `xs`)
/// through the selected points minimizes the maximum error at the
/// remaining candidates. `xs` must be ascending with size >= 2.
IndexSelection select_indices(std::span<const double> xs,
                              std::span<const std::vector<double>> funcs,
                              const IndexSelectionConfig& cfg);

/// Record one selection in the index.* metrics (docs/OBSERVABILITY.md):
/// a count, the points kept and the residual error.
void observe_selection(const IndexSelection& sel);

/// Worst-case interpolation error of `func` over candidates `xs` when
/// only the points at `selected` (ascending positions) are stored.
double interpolation_error(std::span<const double> xs,
                           std::span<const double> func,
                           std::span<const std::size_t> selected);

/// Build a candidate axis: the union of `base` and the midpoints of its
/// consecutive segments (ascending, deduplicated).
std::vector<double> densify_axis(std::span<const double> base);

}  // namespace tmm
