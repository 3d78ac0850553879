#include "frontend/tech_map.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tmm::frontend {

namespace {

obs::Counter& g_mapped_designs = obs::counter("frontend.mapped_designs");
obs::Counter& g_mapped_gates = obs::counter("frontend.mapped_gates");
obs::Counter& g_synth_cells = obs::counter("frontend.synthesized_cells");

// Net parasitics are synthesized from fanout with fixed coefficients so
// re-imports are bit-stable (the frontend has no placement data).
constexpr double kWireCapFf = 2.0;         ///< base lumped wire cap per net
constexpr double kWireCapFanoutFf = 0.35;  ///< extra wire cap per sink
constexpr double kWireResKohm = 0.18;      ///< driver->sink Elmore resistance

[[noreturn]] void map_fail(const std::string& where, const std::string& msg) {
  throw fault::FlowError(fault::ErrorCode::kParse, "frontend.map",
                         where + ": " + msg);
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Canonical cover: rows sorted and deduplicated, so logically identical
/// `.names` bodies written in different row orders map to one cell.
SopCover canonical_cover(const SopCover& cover) {
  SopCover c;
  c.output_value = cover.output_value;
  c.rows = cover.rows;
  std::sort(c.rows.begin(), c.rows.end());
  c.rows.erase(std::unique(c.rows.begin(), c.rows.end()), c.rows.end());
  return c;
}

std::uint64_t cover_hash(std::size_t num_inputs, const SopCover& canonical) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a("k=" + std::to_string(num_inputs), h);
  h = fnv1a(std::string("v=") + canonical.output_value, h);
  for (const std::string& row : canonical.rows) h = fnv1a("|" + row, h);
  return h;
}

/// Syntactic unateness of input `i`: the cover only constrains timing
/// through the arc sense, and column polarity is the classic sound
/// approximation — a column using both '0' and '1' is non-unate, a
/// don't-care-only column is treated as non-unate too (the input can
/// still matter through row selection in an off-set cover).
ArcSense column_sense(const SopCover& canonical, std::size_t i) {
  bool saw0 = false;
  bool saw1 = false;
  for (const std::string& row : canonical.rows) {
    if (row[i] == '0') saw0 = true;
    if (row[i] == '1') saw1 = true;
  }
  if (saw0 && saw1) return ArcSense::kNonUnate;
  if (!saw0 && !saw1) return ArcSense::kNonUnate;
  const bool pos_for_onset = saw1;
  const bool onset = canonical.output_value == '1';
  return (pos_for_onset == onset) ? ArcSense::kPositiveUnate
                                  : ArcSense::kNegativeUnate;
}

struct Mapper {
  const FlatNetlist& flat;
  Library& lib;
  const FrontendConfig& cfg;
  LibraryGenConfig gen_cfg;
  ImportStats stats;

  Mapper(const FlatNetlist& f, Library& l, const FrontendConfig& c)
      : flat(f), lib(l), cfg(c) {
    gen_cfg.seed = cfg.lib_seed;
  }

  /// Every net name the flat netlist mentions (for clock-name dedup).
  std::unordered_set<std::string> all_net_names() const {
    std::unordered_set<std::string> used(flat.inputs.begin(),
                                         flat.inputs.end());
    used.insert(flat.outputs.begin(), flat.outputs.end());
    used.insert(flat.clocks.begin(), flat.clocks.end());
    for (const FlatPrimitive& p : flat.prims) {
      used.insert(p.inputs.begin(), p.inputs.end());
      if (!p.output.empty()) used.insert(p.output);
      if (!p.control.empty()) used.insert(p.control);
      for (const std::string& n : p.port_nets)
        if (!n.empty()) used.insert(n);
    }
    return used;
  }

  /// Choose the clock net. Returns (net name, synthesized?) — empty
  /// name for a purely combinational design.
  std::pair<std::string, bool> choose_clock() const {
    // Distinct control nets: latch controls + nets on FF clock pins.
    std::set<std::string> controls;  // ordered -> deterministic messages
    bool sequential = false;
    for (const FlatPrimitive& p : flat.prims) {
      if (p.kind == FlatKind::kLatch) {
        sequential = true;
        if (!p.control.empty()) controls.insert(p.control);
      } else if (p.kind == FlatKind::kCell) {
        const Cell& cell = lib.cell(lib.cell_id(p.cell));
        for (std::size_t i = 0; i < cell.ports.size(); ++i)
          if (cell.ports[i].is_clock) {
            sequential = true;
            if (!p.port_nets[i].empty()) controls.insert(p.port_nets[i]);
          }
      }
    }
    for (const std::string& c : flat.clocks) controls.insert(c);

    const auto is_input = [this](const std::string& n) {
      return std::find(flat.inputs.begin(), flat.inputs.end(), n) !=
                 flat.inputs.end() ||
             std::find(flat.clocks.begin(), flat.clocks.end(), n) !=
                 flat.clocks.end();
    };

    if (!cfg.clock.empty()) {
      if (!is_input(cfg.clock))
        map_fail(flat.source,
                 "--clock '" + cfg.clock + "' is not a primary input");
      for (const std::string& c : controls)
        if (c != cfg.clock)
          map_fail(flat.source, "latch/FF control net '" + c +
                                    "' does not match --clock '" + cfg.clock +
                                    "'");
      return {cfg.clock, false};
    }
    if (!sequential && controls.empty()) return {std::string(), false};
    if (controls.size() > 1) {
      std::string list;
      for (const std::string& c : controls) list += " '" + c + "'";
      map_fail(flat.source,
               "multiple clock/control nets:" + list +
                   "; disambiguate with --clock");
    }
    if (controls.size() == 1) {
      const std::string& c = *controls.begin();
      if (!is_input(c))
        map_fail(flat.source, "clock/control net '" + c +
                                  "' is not a primary input (derived clocks "
                                  "are not supported)");
      return {c, false};
    }
    // Sequential with every latch unclocked (NIL): synthesize a clock
    // input. Pick a name no existing net uses.
    const std::unordered_set<std::string> used = all_net_names();
    std::string name = "clk";
    for (std::size_t i = 2; used.count(name) != 0; ++i)
      name = "tmm_clk" + (i > 2 ? std::to_string(i) : std::string());
    return {name, true};
  }

  CellId names_cell(const FlatPrimitive& prim) {
    const SopCover canonical = canonical_cover(prim.cover);
    NamesCellSpec spec;
    spec.num_inputs = prim.inputs.size();
    spec.cover_hash = cover_hash(spec.num_inputs, canonical);
    spec.senses.reserve(spec.num_inputs);
    for (std::size_t i = 0; i < spec.num_inputs; ++i)
      spec.senses.push_back(column_sense(canonical, i));
    const bool existed = lib.has_cell(names_cell_name(spec));
    const CellId id = ensure_names_cell(lib, spec, gen_cfg);
    if (!existed) {
      ++stats.cells_synthesized;
      g_synth_cells.add();
    }
    return id;
  }

  Design run() {
    const auto [clock_net, clock_synth] = choose_clock();
    stats.clock = clock_net;

    Design design(cfg.design_name.empty() ? flat.name : cfg.design_name,
                  &lib);

    // --- ports: inputs, declared clocks, synthesized clock, outputs --
    std::unordered_map<std::string, PinId> driver_of;  ///< net -> driver pin
    const auto add_input = [&](const std::string& name, bool is_clk) {
      const std::uint32_t idx = design.add_port(
          name, TopPortDir::kPrimaryInput, is_clk);
      if (!driver_of.emplace(name, design.port(idx).pin).second)
        map_fail(flat.source, "duplicate primary input '" + name + "'");
    };
    for (const std::string& in : flat.inputs)
      add_input(in, in == clock_net);
    for (const std::string& clk : flat.clocks) add_input(clk, true);
    if (clock_synth) add_input(clock_net, true);
    std::vector<std::uint32_t> po_ports;
    po_ports.reserve(flat.outputs.size());
    for (const std::string& out : flat.outputs)
      po_ports.push_back(design.add_port(out, TopPortDir::kPrimaryOutput));

    // --- gates in flattened-primitive order ---------------------------
    const CellId dff = lib.has_cell("DFF_X1") ? lib.cell_id("DFF_X1")
                                              : kInvalidId;
    struct SinkRef {
      std::string net;
      PinId pin;
    };
    std::vector<SinkRef> sinks;  ///< gate input pins in (gate, pin) order
    for (const FlatPrimitive& prim : flat.prims) {
      switch (prim.kind) {
        case FlatKind::kNames: {
          const CellId cid = names_cell(prim);
          const GateId gid = design.add_gate(prim.name, cid);
          const Gate& gate = design.gate(gid);
          for (std::size_t i = 0; i < prim.inputs.size(); ++i)
            sinks.push_back({prim.inputs[i], gate.pins[i]});
          // Port I<k> is the output Y (last port).
          if (!driver_of.emplace(prim.output, gate.pins.back()).second)
            map_fail(prim.loc.str(),
                     "net '" + prim.output + "' has multiple drivers");
          break;
        }
        case FlatKind::kLatch: {
          if (dff == kInvalidId)
            map_fail(prim.loc.str(),
                     "library '" + lib.name() + "' has no DFF_X1 cell");
          ++stats.latches;
          const GateId gid = design.add_gate(prim.name, dff);
          const Gate& gate = design.gate(gid);
          const Cell& cell = lib.cell(dff);
          const std::string& ck =
              prim.control.empty() ? clock_net : prim.control;
          for (std::size_t i = 0; i < cell.ports.size(); ++i) {
            const CellPort& port = cell.ports[i];
            if (port.dir == PortDir::kOutput) {
              if (!driver_of.emplace(prim.output, gate.pins[i]).second)
                map_fail(prim.loc.str(),
                         "net '" + prim.output + "' has multiple drivers");
            } else if (port.is_clock) {
              sinks.push_back({ck, gate.pins[i]});
            } else {
              sinks.push_back({prim.inputs.at(0), gate.pins[i]});
            }
          }
          break;
        }
        case FlatKind::kCell: {
          const CellId cid = lib.cell_id(prim.cell);
          const GateId gid = design.add_gate(prim.name, cid);
          const Gate& gate = design.gate(gid);
          const Cell& cell = lib.cell(cid);
          for (std::size_t i = 0; i < cell.ports.size(); ++i) {
            const std::string& net = prim.port_nets[i];
            if (net.empty()) continue;  // lint-tolerated dangling output
            if (cell.ports[i].dir == PortDir::kInput) {
              sinks.push_back({net, gate.pins[i]});
            } else if (!driver_of.emplace(net, gate.pins[i]).second) {
              map_fail(prim.loc.str(),
                       "net '" + net + "' has multiple drivers");
            }
          }
          break;
        }
      }
      g_mapped_gates.add();
    }

    // --- nets in driver order, sinks in (gate, pin) then PO order ----
    // Driver order = PI ports then gate output pins, which is exactly
    // the order driver_of was populated in; replay it via pin id sort
    // (pin ids are assigned in creation order, so this is canonical).
    std::vector<std::pair<PinId, const std::string*>> drivers;
    drivers.reserve(driver_of.size());
    for (const auto& [net, pin] : driver_of) drivers.push_back({pin, &net});
    std::sort(drivers.begin(), drivers.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    std::unordered_map<std::string, NetId> net_of;
    for (const auto& [pin, net_name] : drivers)
      net_of.emplace(*net_name, design.add_net(*net_name, pin));

    std::unordered_map<std::string, std::size_t> fanout;
    const auto net_for = [&](const std::string& name,
                             const std::string& where) {
      const auto it = net_of.find(name);
      if (it == net_of.end())
        map_fail(where, "net '" + name + "' has no driver");
      return it->second;
    };
    for (const SinkRef& s : sinks) {
      design.connect_sink(net_for(s.net, flat.source), s.pin, kWireResKohm);
      ++fanout[s.net];
    }
    for (std::size_t i = 0; i < flat.outputs.size(); ++i) {
      design.connect_sink(net_for(flat.outputs[i], flat.source),
                          design.port(po_ports[i]).pin, kWireResKohm);
      ++fanout[flat.outputs[i]];
    }
    for (const auto& [name, nid] : net_of)
      design.set_wire_cap(
          nid, kWireCapFf +
                   kWireCapFanoutFf * static_cast<double>(fanout[name]));

    stats.flat_prims = flat.prims.size();
    stats.gates = design.num_gates();
    stats.nets = design.num_nets();
    stats.pins = design.num_pins();
    g_mapped_designs.add();
    return design;
  }
};

}  // namespace

Design map_netlist(const FlatNetlist& flat, Library& lib,
                   const FrontendConfig& cfg, ImportStats* stats) {
  obs::Span span("frontend.map");
  fault::inject("frontend.map");
  Mapper mapper(flat, lib, cfg);
  Design design = mapper.run();
  design.validate();
  if (stats != nullptr) {
    mapper.stats.models = 0;  // filled by import_file (parser-level info)
    *stats = mapper.stats;
  }
  return design;
}

}  // namespace tmm::frontend
