#pragma once
// Deterministic tech mapper (docs/FRONTEND.md): lower a lint-clean
// FlatNetlist onto a generated NLDM library, producing a tmm::Design.
//
// `.names` SOP nodes map to on-demand K-input cells synthesized into
// the (mutable, registry-owned) library via ensure_names_cell —
// byte-identical for the same canonical cover and library seed.
// Latches map to the library's DFF_X1 with setup/hold arcs; instances
// of library cells map 1:1. Construction order is canonical (ports,
// then primitives in flattened order, nets in driver order, sinks in
// pin order), so importing the same file twice writes byte-identical
// .dsn output.

#include <cstdint>
#include <string>

#include "frontend/ir.hpp"
#include "liberty/library_gen.hpp"
#include "netlist/design.hpp"

namespace tmm::frontend {

/// Import knobs shared by `tmm import`, `tmm lint` and the flow runner.
struct FrontendConfig {
  /// Library generator seed the imported design is mapped against.
  std::uint64_t lib_seed = 42;
  /// Top model override (empty = auto-select, see elaborate()).
  std::string top;
  /// Clock net override. Empty = infer: the unique latch/FF control
  /// net, or a synthesized "clk" input when every latch is unclocked.
  std::string clock;
  /// Output design name override (empty = top model name).
  std::string design_name;
};

/// What an import did — surfaced by `tmm import` and the obs counters.
struct ImportStats {
  std::size_t models = 0;       ///< models/modules in the source file
  std::size_t flat_prims = 0;   ///< flattened primitives mapped
  std::size_t latches = 0;      ///< latches mapped to DFF cells
  std::size_t cells_synthesized = 0;  ///< new NK* cells added to the lib
  std::size_t gates = 0;
  std::size_t nets = 0;
  std::size_t pins = 0;
  std::string clock;  ///< chosen clock net; empty = combinational
};

/// Map `flat` onto `lib` (mutated: NK* cells are added on demand).
/// `flat` must be lint-clean (lint_flat); connectivity violations that
/// slipped through raise fault::FlowError(kParse). The library must
/// outlive the returned Design.
Design map_netlist(const FlatNetlist& flat, Library& lib,
                   const FrontendConfig& cfg, ImportStats* stats = nullptr);

}  // namespace tmm::frontend
