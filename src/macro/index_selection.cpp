#include "macro/index_selection.hpp"

#include <algorithm>
#include <cmath>

#include "liberty/lut.hpp"
#include "obs/metrics.hpp"

namespace tmm {

namespace {

// Metric handles resolved at namespace scope (the registry is a leaked
// function-local static, so this is static-init safe) — avoids the
// per-call lookup and init guard in hot code.
constexpr double kPointBounds[] = {2, 4, 8, 16, 32};
constexpr double kErrBounds[] = {0.01, 0.1, 0.5, 1.0, 5.0};
obs::Counter& g_selections = obs::counter("index.selections");
obs::Histogram& g_points = obs::histogram("index.points", kPointBounds);
obs::Histogram& g_residual =
    obs::histogram("index.residual_err_ps", kErrBounds);

/// Error at candidate position `i` of `func` when it is interpolated on
/// the selected segment [lo, hi] that encloses it.
double segment_error(std::span<const double> xs, std::span<const double> func,
                     std::size_t lo, std::size_t hi, std::size_t i) {
  const double t = (xs[i] - xs[lo]) / (xs[hi] - xs[lo]);
  const double approx = func[lo] + t * (func[hi] - func[lo]);
  return std::fabs(approx - func[i]);
}

/// Error at candidate position `i` of `func` under the selected grid.
double point_error(std::span<const double> xs, std::span<const double> func,
                   std::span<const std::size_t> selected, std::size_t i) {
  // Find enclosing selected segment (selected is ascending, includes ends).
  auto it = std::upper_bound(selected.begin(), selected.end(), i);
  if (it == selected.begin() || it == selected.end()) return 0.0;
  const std::size_t hi = *it;
  const std::size_t lo = *(it - 1);
  if (lo == i || hi == i) return 0.0;
  return segment_error(xs, func, lo, hi, i);
}

}  // namespace

double interpolation_error(std::span<const double> xs,
                           std::span<const double> func,
                           std::span<const std::size_t> selected) {
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    worst = std::max(worst, point_error(xs, func, selected, i));
  return worst;
}

IndexSelection select_indices(std::span<const double> xs,
                              std::span<const std::vector<double>> funcs,
                              const IndexSelectionConfig& cfg) {
  const std::size_t n = xs.size();
  IndexSelection out;
  std::vector<std::size_t>& sel = out.positions;
  if (n == 0) return out;
  sel.push_back(0);
  if (n == 1) return out;
  sel.push_back(n - 1);
  const std::size_t budget = std::max<std::size_t>(2, cfg.max_points);

  if (!cfg.error_driven) {
    // Fixed grid: k points spaced evenly in sqrt-space (a generic
    // denser-at-the-low-end template), snapped to the nearest
    // candidates — no knowledge of where the surfaces actually bend.
    sel.clear();
    const std::size_t k = std::min(budget, n);
    const double lo = std::sqrt(std::max(0.0, xs.front()));
    const double hi = std::sqrt(std::max(0.0, xs.back()));
    for (std::size_t i = 0; i < k; ++i) {
      const double root =
          lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(k - 1);
      const double target = root * root;
      std::size_t best = 0;
      for (std::size_t j = 1; j < n; ++j)
        if (std::fabs(xs[j] - target) < std::fabs(xs[best] - target))
          best = j;
      sel.push_back(best);
    }
    std::sort(sel.begin(), sel.end());
    sel.erase(std::unique(sel.begin(), sel.end()), sel.end());
    // The residual of a grid chosen without looking at the error: one
    // sweep over every function.
    for (const auto& f : funcs)
      out.residual_ps =
          std::max(out.residual_ps, interpolation_error(xs, f, sel));
    return out;
  }

  // err[i]: the worst error over all functions at candidate i under the
  // current grid (0 at selected positions). An insertion at pos splits
  // one segment (lo, hi), so only the candidates inside it change.
  std::vector<double> err(n, 0.0);
  auto refresh = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo + 1; i < hi; ++i) {
      double e = 0.0;
      for (const auto& f : funcs)
        e = std::max(e, segment_error(xs, f, lo, hi, i));
      err[i] = e;
    }
  };
  refresh(0, n - 1);
  const std::size_t limit = std::min(budget, n);
  while (true) {
    // The candidate with the largest error: ascending scan, strict >,
    // so the first of tied candidates wins.
    double worst_err = 0.0;
    std::size_t worst_pos = 0;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      if (err[i] > worst_err) {
        worst_err = err[i];
        worst_pos = i;
      }
    }
    // The last maximum is the residual of the final grid.
    out.residual_ps = worst_err;
    if (sel.size() >= limit || worst_err <= cfg.tolerance_ps) break;
    const auto at = std::upper_bound(sel.begin(), sel.end(), worst_pos);
    const std::size_t hi = *at;
    const std::size_t lo = *(at - 1);
    sel.insert(at, worst_pos);
    err[worst_pos] = 0.0;
    refresh(lo, worst_pos);
    refresh(worst_pos, hi);
  }
  return out;
}

void observe_selection(const IndexSelection& sel) {
  g_selections.add();
  g_points.observe(static_cast<double>(sel.positions.size()));
  g_residual.observe(sel.residual_ps);
}

std::vector<double> densify_axis(std::span<const double> base) {
  std::vector<double> out;
  if (base.empty()) return out;
  out.reserve(base.size() * 2);
  for (std::size_t i = 0; i < base.size(); ++i) {
    out.push_back(base[i]);
    if (i + 1 < base.size()) out.push_back(0.5 * (base[i] + base[i + 1]));
  }
  out.erase(std::unique(out.begin(), out.end(),
                        [](double a, double b) { return a == b; }),
            out.end());
  return out;
}

}  // namespace tmm
