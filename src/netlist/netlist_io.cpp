#include "netlist/netlist_io.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "fault/token_reader.hpp"
#include "util/atomic_io.hpp"
#include "util/text_out.hpp"

namespace tmm {

namespace {

using fault::ErrorCode;
using fault::FlowError;
using io::TokenReader;

/// Pins are addressed as "p <port-index>" (top-level) or
/// "g <gate-index> <cell-port-index>".
void write_pin_ref(util::TextOut& out, const Design& d, PinId pin) {
  const Pin& p = d.pin(pin);
  if (p.gate == kInvalidId)
    out << "p " << p.port;
  else
    out << "g " << p.gate << ' ' << p.port;
}

/// Bounds-checked pin-reference parse: a dangling index reports the
/// source line and the offending value instead of crashing three
/// layers down in Design::gate().
PinId read_pin_ref(TokenReader& tr, const Design& d) {
  const std::string kind(tr.token("pin reference kind"));
  if (kind == "p") {
    const std::uint32_t port = tr.u32("port index");
    if (port >= d.num_ports())
      tr.fail("dangling port reference " + std::to_string(port) + " (design has " +
              std::to_string(d.num_ports()) + " ports)");
    return d.port(port).pin;
  }
  if (kind == "g") {
    const std::size_t gate = tr.size("gate index");
    const std::uint32_t port = tr.u32("gate pin index");
    if (gate >= d.num_gates())
      tr.fail("dangling gate reference " + std::to_string(gate) + " (design has " +
              std::to_string(d.num_gates()) + " gates)");
    const auto& pins = d.gate(static_cast<GateId>(gate)).pins;
    if (port >= pins.size())
      tr.fail("dangling pin index " + std::to_string(port) + " on gate " +
              std::to_string(gate) + " (" + std::to_string(pins.size()) +
              " pins)");
    return pins[port];
  }
  tr.fail("bad pin reference kind '" + kind + "' (expected 'p' or 'g')");
}

/// A corrupt count field must not become a multi-gigabyte reserve
/// before the next per-record tag check would catch it.
constexpr std::size_t kMaxRecords = 100'000'000;

std::string format_design(const Design& design) {
  util::TextOut buf(17);
  buf << "design " << design.name() << ' ' << design.library().name() << ' '
      << design.num_ports() << ' ' << design.num_gates() << ' '
      << design.num_nets() << '\n';
  for (std::uint32_t i = 0; i < design.num_ports(); ++i) {
    const TopPort& p = design.port(i);
    buf << "port " << p.name << ' '
        << (p.dir == TopPortDir::kPrimaryInput ? "in" : "out") << ' '
        << (p.is_clock ? 1 : 0) << '\n';
  }
  for (GateId g = 0; g < design.num_gates(); ++g) {
    const Gate& gate = design.gate(g);
    buf << "gate " << gate.name << ' '
        << design.library().cell(gate.cell).name << '\n';
  }
  for (NetId n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(n);
    buf << "net " << net.name << ' ';
    write_pin_ref(buf, design, net.driver);
    buf << ' ' << net.wire_cap_ff << ' ' << net.sinks.size() << '\n';
    for (std::size_t k = 0; k < net.sinks.size(); ++k) {
      buf << "  sink ";
      write_pin_ref(buf, design, net.sinks[k]);
      buf << ' ' << net.sink_res_kohm[k] << '\n';
    }
  }
  return std::move(buf).take();
}

}  // namespace

std::size_t write_design(const Design& design, std::ostream& os) {
  const std::string s = format_design(design);
  os << s;
  return s.size();
}

Design read_design(std::istream& is, const Library& lib, std::string source) {
  fault::inject("netlist.read");
  TokenReader tr(is, std::move(source));
  tr.expect("design");
  const std::string name(tr.token("design name"));
  const std::string lib_name(tr.token("library name"));
  const std::size_t nports = tr.size_at_most("port count", kMaxRecords);
  const std::size_t ngates = tr.size_at_most("gate count", kMaxRecords);
  const std::size_t nnets = tr.size_at_most("net count", kMaxRecords);
  if (lib_name != lib.name())
    tr.fail("design built against library '" + lib_name + "', got '" +
            lib.name() + "'");
  Design d(name, &lib);
  for (std::size_t i = 0; i < nports; ++i) {
    tr.expect("port");
    const std::string pname(tr.token("port name"));
    const std::string dir(tr.token("port direction"));
    if (dir != "in" && dir != "out")
      tr.fail("bad port direction '" + dir + "' (expected 'in' or 'out')");
    const int clk = tr.integer_in("clock flag", 0, 1);
    d.add_port(pname, dir == "in" ? TopPortDir::kPrimaryInput
                                  : TopPortDir::kPrimaryOutput,
               clk != 0);
  }
  for (std::size_t i = 0; i < ngates; ++i) {
    tr.expect("gate");
    const std::string gname(tr.token("gate name"));
    const std::string cname(tr.token("cell name"));
    try {
      d.add_gate(gname, lib.cell_id(cname));
    } catch (const std::out_of_range&) {
      tr.fail("unknown cell '" + cname + "' in library '" + lib.name() + "'");
    }
  }
  for (std::size_t i = 0; i < nnets; ++i) {
    tr.expect("net");
    const std::string nname(tr.token("net name"));
    const PinId driver = read_pin_ref(tr, d);
    const double wire_cap = tr.number("wire capacitance");
    const std::size_t nsinks = tr.size_at_most("sink count", kMaxRecords);
    const NetId net = d.add_net(nname, driver);
    d.set_wire_cap(net, wire_cap);
    for (std::size_t k = 0; k < nsinks; ++k) {
      tr.expect("sink");
      const PinId sink = read_pin_ref(tr, d);
      const double res = tr.number("sink resistance");
      d.connect_sink(net, sink, res);
    }
  }
  try {
    d.validate();
  } catch (const std::exception& e) {
    throw FlowError(ErrorCode::kParse, tr.source(), e.what(), name);
  }
  return d;
}

Design read_design_file(const std::string& path, const Library& lib) {
  std::ifstream is(path);
  if (!is)
    throw FlowError(ErrorCode::kIo, "netlist.read", "cannot open " + path);
  return read_design(is, lib, path);
}

std::size_t write_design_file(const Design& design, const std::string& path) {
  const std::string s = format_design(design);
  util::atomic_write_file(path, s).or_throw("netlist.write", design.name());
  return s.size();
}

}  // namespace tmm
