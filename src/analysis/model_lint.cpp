#include "analysis/model_lint.hpp"

#include <string>

namespace tmm::analysis {

namespace {

/// True when any corner surface of the delay payload is 1-D or scalar —
/// the shape only re-characterization produces (library arcs always
/// carry full 2-D slew x load surfaces).
bool has_recharacterized_shape(const ElRf<Lut>& tables) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      if (!tables(el, rf).is_2d()) return true;
  return false;
}

void check_baked_derate(const TimingGraph& g, LintReport& report) {
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead) continue;
    const std::string loc = "arc " + g.node(arc.from).name + " -> " +
                            g.node(arc.to).name;
    if (arc.kind == GraphArcKind::kWire) {
      if (arc.baked_derate)
        report.add(rule::kBakedDerate, Severity::kWarning, loc,
                   "wire arc carries baked_derate; derates never apply to "
                   "wire arcs",
                   "clear the flag — it suggests a mixed-up arc record");
      continue;
    }
    if (arc.delay != nullptr && has_recharacterized_shape(*arc.delay) &&
        !arc.baked_derate)
      report.add(rule::kBakedDerate, Severity::kError, loc,
                 "re-characterized (1-D/scalar surface) merged arc is not "
                 "marked baked_derate; the engine would derate it twice",
                 "materialize_chain/compose must set baked_derate on "
                 "merged arcs");
  }
}

void check_boundary_retention(const MacroModel& model, const Design& design,
                              LintReport& report) {
  const TimingGraph& g = model.graph;
  const auto side = [&](const std::vector<PinId>& want,
                        const std::vector<NodeId>& got, const char* name) {
    if (got.size() != want.size()) {
      report.add(rule::kBoundaryLost, Severity::kError,
                 std::string(name) + " list",
                 "design has " + std::to_string(want.size()) + " " + name +
                     "s but the model retains " + std::to_string(got.size()),
                 "ILM capture must keep every boundary pin");
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::string loc =
          std::string(name) + " ordinal " + std::to_string(i);
      if (got[i] == kInvalidId || got[i] >= g.num_nodes() ||
          g.node(got[i]).dead) {
        report.add(rule::kBoundaryLost, Severity::kError, loc,
                   "boundary pin " + design.pin_name(want[i]) +
                       " of the design is missing or dead in the model",
                   "boundary pins must never be merged away");
        continue;
      }
      const std::string& got_name = g.node(got[i]).name;
      if (got_name != design.pin_name(want[i]))
        report.add(rule::kBoundaryLost, Severity::kError, loc,
                   "model retains pin '" + got_name +
                       "' where the design has '" +
                       design.pin_name(want[i]) + "'",
                   "ordinals shifted during capture; boundary order must "
                   "be stable");
    }
  };
  side(design.primary_inputs(), g.primary_inputs(), "PI");
  side(design.primary_outputs(), g.primary_outputs(), "PO");
}

}  // namespace

LintReport lint_model(const MacroModel& model) {
  LintReport report = lint_graph(model.graph);
  check_baked_derate(model.graph, report);
  return report;
}

LintReport lint_model_against(const MacroModel& model, const Design& design) {
  LintReport report = lint_model(model);
  check_boundary_retention(model, design, report);
  return report;
}

}  // namespace tmm::analysis
