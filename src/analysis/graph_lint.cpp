#include "analysis/graph_lint.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tmm::analysis {

namespace {

/// Non-unate merged chains use +/-1e290 sentinels for unreachable
/// transitions; those are legitimate table entries, not corruption.
constexpr double kSentinelMagnitude = 1e200;

/// L003 tolerates a backwards delay step up to
/// max(kMonoAbsTolPs, kMonoRelTol * |value|); larger steps fire.
constexpr double kMonoAbsTolPs = 1.0;
constexpr double kMonoRelTol = 0.05;

std::string node_ref(const TimingGraph& g, NodeId n) {
  std::string ref = "#";
  ref += std::to_string(n);
  if (n >= g.num_nodes()) {
    ref += " (out of range)";
    return ref;
  }
  const std::string& name = g.node(n).name;
  return name.empty() ? ref : name;
}

std::string pin_loc(const TimingGraph& g, NodeId n) {
  return "pin " + node_ref(g, n);
}

std::string arc_loc(const TimingGraph& g, const GraphArc& a) {
  return "arc " + node_ref(g, a.from) + " -> " + node_ref(g, a.to);
}

std::string check_loc(const TimingGraph& g, const CheckArc& c) {
  return "check " + node_ref(g, c.clock) + " / " + node_ref(g, c.data);
}

bool strictly_increasing(std::span<const double> axis) {
  for (std::size_t i = 1; i < axis.size(); ++i)
    if (!(axis[i] > axis[i - 1])) return false;
  return true;
}

bool all_finite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Structural pass: every live arc/check must reference in-range node
/// ids. Returns false when any id is out of range — the remaining rules
/// would index out of bounds and are skipped.
bool check_id_ranges(const TimingGraph& g, LintReport& report) {
  bool ok = true;
  const std::size_t n = g.num_nodes();
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead) continue;
    if (arc.from >= n || arc.to >= n) {
      report.add(rule::kDanglingArc, Severity::kError, arc_loc(g, arc),
                 "live arc references an out-of-range node id",
                 "kill the arc or rebuild the graph");
      ok = false;
    }
  }
  for (std::uint32_t c = 0; c < g.num_checks(); ++c) {
    const CheckArc& chk = g.check(c);
    if (chk.dead) continue;
    if (chk.clock >= n || chk.data >= n) {
      report.add(rule::kDanglingCheck, Severity::kError, check_loc(g, chk),
                 "live check references an out-of-range node id",
                 "kill the check or rebuild the graph");
      ok = false;
    }
  }
  return ok;
}

void check_cycles(const TimingGraph& g, LintReport& report) {
  const std::vector<NodeId> cycle = find_cycle(g);
  if (cycle.empty()) return;
  std::string msg = "combinational cycle: ";
  for (NodeId u : cycle) {
    msg += node_ref(g, u);
    msg += " -> ";
  }
  msg += node_ref(g, cycle.front());
  report.add(rule::kCycle, Severity::kError, pin_loc(g, cycle.front()),
             std::move(msg),
             "a merge or manual edit spliced an arc against topological "
             "order; remove one arc of the cycle");
}

void check_dead_references(const TimingGraph& g, LintReport& report) {
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead) continue;
    if (g.node(arc.from).dead || g.node(arc.to).dead)
      report.add(rule::kDanglingArc, Severity::kError, arc_loc(g, arc),
                 "live arc touches a dead node",
                 "kill_node marks incident arcs dead; arcs added after the "
                 "kill must target live nodes");
    if (arc.kind == GraphArcKind::kCell &&
        (arc.delay == nullptr || arc.out_slew == nullptr))
      report.add(rule::kNullTables, Severity::kError, arc_loc(g, arc),
                 "live cell arc has no delay/slew tables",
                 "materialize the merged chain or kill the arc");
  }
  for (std::uint32_t c = 0; c < g.num_checks(); ++c) {
    const CheckArc& chk = g.check(c);
    if (chk.dead) continue;
    if (g.node(chk.clock).dead || g.node(chk.data).dead)
      report.add(rule::kDanglingCheck, Severity::kError, check_loc(g, chk),
                 "live check references a dead clock or data pin",
                 "kill the check together with its flip-flop pins");
    if (chk.guard == nullptr)
      report.add(rule::kNullTables, Severity::kError, check_loc(g, chk),
                 "live check has no guard-time table",
                 "attach the setup/hold table or kill the check");
  }
}

void check_po_load_refs(const TimingGraph& g, LintReport& report) {
  const std::size_t num_pos = g.primary_outputs().size();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const GraphNode& node = g.node(n);
    if (node.dead) continue;
    for (std::uint32_t po : node.attached_po_loads) {
      if (po >= num_pos || g.primary_outputs()[po] == kInvalidId)
        report.add(rule::kPoLoadRange, Severity::kError, pin_loc(g, n),
                   "attached_po_loads references PO ordinal " +
                       std::to_string(po) + " but the graph has " +
                       std::to_string(num_pos) + " primary outputs",
                   "rebuild attached_po_loads after changing the boundary");
    }
  }
}

void check_boundary_side(const TimingGraph& g, LintReport& report,
                         const std::vector<NodeId>& ports, NodeRole role,
                         const char* side) {
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const std::string loc =
        std::string(side) + " ordinal " + std::to_string(i);
    const NodeId p = ports[i];
    if (p == kInvalidId) {
      report.add(rule::kBoundaryOrdinal, Severity::kError, loc,
                 "gap in the boundary ordinal list: no pin registered",
                 "assign contiguous port ordinals starting at 0");
      continue;
    }
    if (p >= g.num_nodes()) {
      report.add(rule::kBoundaryOrdinal, Severity::kError, loc,
                 "boundary list references an out-of-range node id", "");
      continue;
    }
    const GraphNode& node = g.node(p);
    if (node.dead)
      report.add(rule::kBoundaryOrdinal, Severity::kError, loc,
                 "boundary pin " + node_ref(g, p) + " is dead",
                 "boundary pins must never be merged away");
    if (node.role != role)
      report.add(rule::kBoundaryOrdinal, Severity::kError, loc,
                 "pin " + node_ref(g, p) +
                     " is in the boundary list but does not carry the " +
                     side + " role",
                 "set_primary_input/output must stay in sync with roles");
    else if (node.port_ordinal != i)
      report.add(rule::kBoundaryOrdinal, Severity::kError, loc,
                 "pin " + node_ref(g, p) + " carries port_ordinal " +
                     std::to_string(node.port_ordinal) +
                     " but is registered at ordinal " + std::to_string(i),
                 "duplicate or stale ordinal registration");
  }
  // Reverse direction: every live node carrying the role must be the
  // registered owner of its ordinal (catches duplicates that overwrote
  // the list slot).
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const GraphNode& node = g.node(n);
    if (node.dead || node.role != role) continue;
    if (node.port_ordinal >= ports.size() ||
        ports[node.port_ordinal] != n)
      report.add(rule::kBoundaryOrdinal, Severity::kError, pin_loc(g, n),
                 std::string("duplicate or unregistered ") + side +
                     " ordinal " + std::to_string(node.port_ordinal),
                 "two pins claim the same ordinal, or the list was not "
                 "updated");
  }
}

void check_clock_reachability(const TimingGraph& g, LintReport& report) {
  bool has_ff_clock = false;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (!g.node(n).dead && g.node(n).is_ff_clock) has_ff_clock = true;
  if (!has_ff_clock) return;

  const NodeId root = g.clock_root();
  if (root == kInvalidId || root >= g.num_nodes() || g.node(root).dead) {
    report.add(rule::kClockReach, Severity::kError, "clock root",
               "graph has flip-flop clock pins but no live clock root",
               "register the clock source with set_primary_input(..., "
               "is_clock=true)");
    return;
  }
  std::vector<bool> reach(g.num_nodes(), false);
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (reach[u]) continue;
    reach[u] = true;
    if (g.node(u).is_ff_clock) continue;  // launch arcs leave the network
    for (ArcId a : g.fanout(u)) {
      if (g.arc(a).is_launch) continue;
      const NodeId v = g.arc(a).to;
      if (!g.node(v).dead && !reach[v]) stack.push_back(v);
    }
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const GraphNode& node = g.node(n);
    if (node.dead || !node.is_ff_clock || reach[n]) continue;
    report.add(rule::kClockReach, Severity::kError, pin_loc(g, n),
               "flip-flop clock pin is unreachable from the clock root",
               "a merge or ILM capture removed the clock path; keep clock "
               "network pins feeding retained flops");
  }
}

void lint_lut(const Lut& lut, const std::string& loc, LintReport& report) {
  if (!strictly_increasing(lut.slew_index()))
    report.add(rule::kLutIndexOrder, Severity::kError, loc,
               "slew index vector is not strictly increasing",
               "index selection must emit ascending axes");
  if (!strictly_increasing(lut.load_index()))
    report.add(rule::kLutIndexOrder, Severity::kError, loc,
               "load index vector is not strictly increasing",
               "index selection must emit ascending axes");
  if (!all_finite(lut.slew_index()) || !all_finite(lut.load_index()) ||
      !all_finite(lut.values()))
    report.add(rule::kLutNonFinite, Severity::kError, loc,
               "table contains NaN or Inf entries",
               "re-characterization produced an invalid sample; check the "
               "composed chain and index selection inputs");
  const std::size_t expect =
      lut.is_scalar()
          ? 1
          : lut.slew_index().size() *
                (lut.is_2d() ? lut.load_index().size() : 1);
  if (lut.values().size() != expect)
    report.add(rule::kLutShape, Severity::kError, loc,
               "value array has " + std::to_string(lut.values().size()) +
                   " entries but the index grid implies " +
                   std::to_string(expect),
               "table shape corrupted during (de)serialization or merge");
}

/// Gross delay-vs-load monotonicity of an owned (re-characterized) 2-D
/// delay surface: more load must not make the stage significantly
/// faster. One finding per surface keeps the report readable.
void lint_monotone(const Lut& lut, const std::string& loc,
                   LintReport& report) {
  if (!lut.is_2d()) return;
  const std::size_t nl = lut.load_index().size();
  const auto vals = lut.values();
  if (vals.size() != lut.slew_index().size() * nl) return;  // L004 fired
  for (std::size_t i = 0; i < lut.slew_index().size(); ++i) {
    for (std::size_t j = 1; j < nl; ++j) {
      const double prev = vals[i * nl + j - 1];
      const double cur = vals[i * nl + j];
      if (!std::isfinite(prev) || !std::isfinite(cur)) return;
      if (std::abs(prev) >= kSentinelMagnitude ||
          std::abs(cur) >= kSentinelMagnitude)
        continue;
      const double tol =
          std::max(kMonoAbsTolPs, kMonoRelTol * std::abs(prev));
      if (cur < prev - tol) {
        report.add(rule::kLutNonMonotone, Severity::kWarning, loc,
                   "re-characterized delay decreases by " +
                       std::to_string(prev - cur) +
                       " ps when load grows (row " + std::to_string(i) +
                       ", column " + std::to_string(j) + ")",
                   "suspicious composite characterization; inspect the "
                   "merged chain sampling");
        return;
      }
    }
  }
}

void check_tables(const TimingGraph& g, LintReport& report) {
  // Deduplicate by surface pointer: merged models share tables between
  // arcs, and the diagnostics should not repeat per user.
  std::map<const ElRf<Lut>*, std::string> seen;
  auto visit = [&](const ElRf<Lut>* t, std::string loc, bool is_delay) {
    if (t == nullptr) return;
    if (!seen.emplace(t, loc).second) return;
    for (unsigned el = 0; el < kNumEl; ++el) {
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        const std::string surface_loc =
            loc + (el == kEarly ? " [early/" : " [late/") +
            (rf == kRise ? "rise]" : "fall]");
        lint_lut((*t)(el, rf), surface_loc, report);
        if (is_delay && g.owns_tables(t))
          lint_monotone((*t)(el, rf), surface_loc, report);
      }
    }
  };
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead || arc.kind != GraphArcKind::kCell) continue;
    visit(arc.delay, "delay tables of " + arc_loc(g, arc), true);
    visit(arc.out_slew, "slew tables of " + arc_loc(g, arc), false);
  }
  for (std::uint32_t c = 0; c < g.num_checks(); ++c) {
    const CheckArc& chk = g.check(c);
    if (chk.dead) continue;
    visit(chk.guard, "guard tables of " + check_loc(g, chk), false);
  }
}

}  // namespace

LintReport lint_graph(const TimingGraph& g) {
  LintReport report;
  // Out-of-range ids would make every other rule index out of bounds;
  // report them alone and stop.
  if (!check_id_ranges(g, report)) return report;
  check_cycles(g, report);
  check_dead_references(g, report);
  check_po_load_refs(g, report);
  check_boundary_side(g, report, g.primary_inputs(),
                      NodeRole::kPrimaryInput, "PI");
  check_boundary_side(g, report, g.primary_outputs(),
                      NodeRole::kPrimaryOutput, "PO");
  check_clock_reachability(g, report);
  check_tables(g, report);
  return report;
}

void expect_clean(const TimingGraph& g) {
  const LintReport report = lint_graph(g);
  if (!report.clean())
    throw std::runtime_error("timing graph failed invariant check:\n" +
                             report.to_string());
}

}  // namespace tmm::analysis
