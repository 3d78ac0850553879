#pragma once
// Rule-based invariant checker for timing graphs.
//
// The macro-modeling flow mutates graphs in place (ILM capture kills
// pins, merging splices re-characterized arcs), so a silent invariant
// violation — a cycle introduced by a bad merge, a live arc into a dead
// node, a NaN in a re-characterized surface — corrupts boundary timing
// without crashing. lint_graph() proves well-formedness statically and
// reports structured diagnostics instead of throwing, so it is safe to
// run on arbitrarily corrupted graphs.
//
// Rule catalogue: docs/ANALYSIS.md.

#include "analysis/diagnostics.hpp"
#include "sta/timing_graph.hpp"

namespace tmm::analysis {

/// Run every graph rule (G*, B*, L*) and return the findings.
LintReport lint_graph(const TimingGraph& g);

/// Test/assertion helper: throw std::runtime_error carrying the full
/// report when lint_graph() finds any error-severity diagnostic.
void expect_clean(const TimingGraph& g);

}  // namespace tmm::analysis
