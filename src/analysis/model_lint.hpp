#pragma once
// Macro-model-level invariant checks (M* rules) on top of the graph
// rules: boundary retention against the source design and baked-derate
// consistency of merged (re-characterized) arcs.

#include "analysis/diagnostics.hpp"
#include "analysis/graph_lint.hpp"
#include "macro/macro_model.hpp"
#include "netlist/design.hpp"

namespace tmm::analysis {

/// Graph rules on model.graph plus the model-only M* rules.
LintReport lint_model(const MacroModel& model);

/// lint_model() plus M001 boundary-retention checks against the design
/// the model was generated from: every PI/PO of the design must survive
/// in the model at the same ordinal with the same name.
LintReport lint_model_against(const MacroModel& model, const Design& design);

}  // namespace tmm::analysis
