#include "sensitivity/filter.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sta/propagation.hpp"
#include "util/stats.hpp"

namespace tmm {

namespace {

// Metric handle resolved at namespace scope (the registry is a leaked
// function-local static, so this is static-init safe).
obs::Counter& g_filter_runs = obs::counter("filter.runs");

// The two slews propagated from every PI (t_min, t_max) and the load on
// every PO. flow_fingerprint hashes these values.
constexpr double kSlewMinPs = 2.0;
constexpr double kSlewMaxPs = 60.0;
constexpr double kPoLoadFf = 4.0;

}  // namespace

FilterResult filter_insensitive_pins(const TimingGraph& g,
                                     const FilterConfig& cfg) {
  obs::Span span("sensitivity.filter");
  FilterResult out;
  const std::size_t n = g.num_nodes();
  const auto lo = propagate_slew_only(g, kSlewMinPs, kPoLoadFf);
  const auto hi = propagate_slew_only(g, kSlewMaxPs, kPoLoadFf);

  out.sd.assign(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    if (g.node(u).dead) continue;
    if (std::isfinite(lo[u]) && std::isfinite(hi[u]))
      out.sd[u] = std::max(0.0, hi[u] - lo[u]);
  }

  // Standardize over live pins only, then scatter back.
  std::vector<double> live_sd;
  std::vector<NodeId> live_ids;
  for (NodeId u = 0; u < n; ++u) {
    if (g.node(u).dead) continue;
    live_sd.push_back(out.sd[u]);
    live_ids.push_back(u);
  }
  standardize(live_sd);
  out.sd_z.assign(n, 0.0);
  for (std::size_t i = 0; i < live_ids.size(); ++i)
    out.sd_z[live_ids[i]] = live_sd[i];

  out.remained.assign(n, false);
  out.live_pins = live_ids.size();
  for (NodeId u : live_ids) {
    const bool by_sd = out.sd_z[u] >= cfg.z_threshold;
    const bool protected_pin = is_last_stage(g, u);
    if (by_sd || protected_pin) {
      out.remained[u] = true;
      ++out.num_remained;
    }
  }
  // §4.2 economics: how many pins the filter spares the TS loop.
  g_filter_runs.add();
  obs::gauge("filter.live_pins").set(static_cast<double>(out.live_pins));
  obs::gauge("filter.remained").set(static_cast<double>(out.num_remained));
  obs::gauge("filter.filtered")
      .set(static_cast<double>(out.live_pins - out.num_remained));
  span.set_arg("remained", static_cast<double>(out.num_remained));
  return out;
}

}  // namespace tmm
