#include "macro/ilm.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tmm {

namespace {

// Metric handle resolved at namespace scope (the registry is a leaked
// function-local static, so this is static-init safe).
obs::Counter& g_extractions = obs::counter("ilm.extractions");

}  // namespace

std::vector<bool> ilm_keep_set(const TimingGraph& flat) {
  const std::size_t n = flat.num_nodes();
  std::vector<bool> fwd(n, false);

  // Forward cones from all PIs; never cross a flip-flop (data pins do
  // not expand, launch arcs are not traversed). The clock network is
  // swept up here via the clock PI and pruned below.
  {
    std::vector<NodeId> stack;
    for (NodeId p : flat.primary_inputs())
      if (p != kInvalidId) stack.push_back(p);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      if (fwd[u]) continue;
      fwd[u] = true;
      if (flat.node(u).is_ff_data) continue;
      for (ArcId a : flat.fanout(u)) {
        if (flat.arc(a).is_launch) continue;
        if (!fwd[flat.arc(a).to]) stack.push_back(flat.arc(a).to);
      }
    }
  }

  // Seeds for the support closure: PI-reachable data logic (without the
  // clock network, handled separately) plus the primary outputs.
  std::vector<bool> keep(n, false);
  std::vector<bool> ck_needed(n, false);
  std::vector<NodeId> stack;
  for (NodeId u = 0; u < n; ++u)
    if (fwd[u] && !flat.node(u).in_clock_network) {
      keep[u] = true;
      stack.push_back(u);
    }
  for (NodeId p : flat.primary_outputs())
    if (p != kInvalidId && !keep[p]) {
      keep[p] = true;
      stack.push_back(p);
    }

  // Support closure: every pin feeding a kept pin must itself be kept,
  // or boundary timing (worst slews/arrivals at kept pins) would change.
  // Crossing a launch arc keeps the flop's clock pin and stops — the
  // launching flop joins the interface, its D-side cone does not.
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (ArcId a : flat.fanin(u)) {
      const GraphArc& arc = flat.arc(a);
      if (arc.is_launch) {
        ck_needed[arc.from] = true;
        continue;
      }
      const NodeId v = arc.from;
      if (keep[v] || flat.node(v).in_clock_network) continue;
      keep[v] = true;
      stack.push_back(v);
    }
  }

  // Interface-input flops: D pin reached forward. Their clock pins must
  // be kept for the setup/hold checks.
  for (const auto& c : flat.checks()) {
    if (c.dead) continue;
    if (fwd[c.data]) {
      keep[c.data] = true;
      ck_needed[c.clock] = true;
    }
  }

  // Clock paths: reverse reachability from needed CK pins restricted to
  // the clock network.
  {
    std::vector<bool> visited(n, false);
    std::vector<NodeId> stack;
    for (NodeId u = 0; u < n; ++u)
      if (ck_needed[u]) stack.push_back(u);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      if (visited[u]) continue;
      visited[u] = true;
      keep[u] = true;
      for (ArcId a : flat.fanin(u)) {
        const NodeId v = flat.arc(a).from;
        if (flat.node(v).in_clock_network && !visited[v]) stack.push_back(v);
      }
    }
  }

  // Boundary ports are always kept (ordinals must survive even if a
  // port is combinationally disconnected).
  for (NodeId p : flat.primary_inputs())
    if (p != kInvalidId) keep[p] = true;
  for (NodeId p : flat.primary_outputs())
    if (p != kInvalidId) keep[p] = true;
  return keep;
}

IlmResult extract_ilm(const TimingGraph& flat) {
  obs::Span span("macro.ilm");
  const std::vector<bool> keep = ilm_keep_set(flat);
  const std::size_t n = flat.num_nodes();

  IlmResult out;
  out.flat_to_ilm.assign(n, kInvalidId);
  for (NodeId u = 0; u < n; ++u) {
    if (!keep[u] || flat.node(u).dead) continue;
    GraphNode node = flat.node(u);  // copies flags, name, static load
    const NodeId id = out.graph.add_node(std::move(node));
    out.flat_to_ilm[u] = id;
    out.ilm_to_flat.push_back(u);
  }

  // Boundary roles.
  for (std::uint32_t i = 0; i < flat.primary_inputs().size(); ++i) {
    const NodeId p = flat.primary_inputs()[i];
    if (p == kInvalidId || out.flat_to_ilm[p] == kInvalidId) continue;
    out.graph.set_primary_input(out.flat_to_ilm[p], i,
                                flat.node(p).is_clock_root);
  }
  for (std::uint32_t i = 0; i < flat.primary_outputs().size(); ++i) {
    const NodeId p = flat.primary_outputs()[i];
    if (p == kInvalidId || out.flat_to_ilm[p] == kInvalidId) continue;
    out.graph.set_primary_output(out.flat_to_ilm[p], i);
  }

  // Arcs with both endpoints kept. Library-backed tables are shared by
  // pointer; the library outlives every model derived from it.
  for (ArcId a = 0; a < flat.num_arcs(); ++a) {
    const GraphArc& arc = flat.arc(a);
    if (arc.dead) continue;
    const NodeId f = out.flat_to_ilm[arc.from];
    const NodeId t = out.flat_to_ilm[arc.to];
    if (f == kInvalidId || t == kInvalidId) continue;
    if (arc.kind == GraphArcKind::kWire) {
      out.graph.add_wire_arc(f, t, arc.wire_delay_ps);
    } else {
      out.graph.add_cell_arc(f, t, arc.sense, arc.delay, arc.out_slew,
                             arc.is_launch);
    }
  }
  for (const auto& c : flat.checks()) {
    if (c.dead) continue;
    const NodeId ck = out.flat_to_ilm[c.clock];
    const NodeId d = out.flat_to_ilm[c.data];
    if (ck == kInvalidId || d == kInvalidId) continue;
    out.graph.add_check(ck, d, c.is_setup, c.guard);
  }
  g_extractions.add();
  obs::gauge("ilm.flat_pins").set(static_cast<double>(flat.num_live_nodes()));
  obs::gauge("ilm.pins").set(static_cast<double>(out.graph.num_live_nodes()));
  span.set_arg("pins", static_cast<double>(out.graph.num_live_nodes()));
  return out;
}

}  // namespace tmm
