#include "liberty/liberty_writer.hpp"

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/text_out.hpp"

namespace tmm {

namespace {

constexpr int kPrecision = 6;
/// Units recorded in the header: the library's tables are in ps and fF.
constexpr const char* kTimeUnit = "1ps";
constexpr const char* kCapUnit = "1ff";

std::string join(std::span<const double> values) {
  util::TextOut out(kPrecision);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ", ";
    out << values[i];
  }
  return std::move(out).take();
}

/// Template signature: the index vectors a table uses.
std::string template_key(const Lut& lut) {
  return join(lut.slew_index()) + "|" + join(lut.load_index());
}

void write_lut_values(util::TextOut& out, const Lut& lut, const char* indent) {
  if (lut.is_scalar()) {
    out << indent << "values(\"" << lut.values()[0] << "\");\n";
    return;
  }
  out << indent << "index_1(\"" << join(lut.slew_index()) << "\");\n";
  if (lut.is_2d())
    out << indent << "index_2(\"" << join(lut.load_index()) << "\");\n";
  out << indent << "values( \\\n";
  const std::size_t cols =
      lut.is_2d() ? lut.load_index().size() : lut.slew_index().size();
  const std::size_t rows = lut.values().size() / cols;
  for (std::size_t r = 0; r < rows; ++r) {
    out << indent << "  \""
        << join(lut.values().subspan(r * cols, cols)) << "\"";
    out << (r + 1 < rows ? ", \\\n" : " \\\n");
  }
  out << indent << ");\n";
}

const char* timing_type(ArcKind kind) {
  switch (kind) {
    case ArcKind::kCombinational: return "combinational";
    case ArcKind::kClockToQ: return "rising_edge";
    case ArcKind::kSetup: return "setup_rising";
    case ArcKind::kHold: return "hold_rising";
  }
  return "combinational";
}

const char* timing_sense(ArcSense sense) {
  switch (sense) {
    case ArcSense::kPositiveUnate: return "positive_unate";
    case ArcSense::kNegativeUnate: return "negative_unate";
    case ArcSense::kNonUnate: return "non_unate";
  }
  return "non_unate";
}

}  // namespace

std::size_t write_liberty(const Library& lib, std::ostream& os,
                          const LibertyWriteOptions& opt) {
  util::TextOut buf(kPrecision);
  const char* corner = opt.el == kLate ? "late" : "early";
  buf << "library (" << lib.name() << "_" << corner << ") {\n";
  buf << "  delay_model : table_lookup;\n";
  buf << "  time_unit : \"" << kTimeUnit << "\";\n";
  buf << "  capacitive_load_unit (1, " << kCapUnit << ");\n\n";

  // Collect the distinct table templates used by this corner.
  std::map<std::string, std::pair<std::string, const Lut*>> templates;
  auto register_template = [&](const Lut& lut) {
    if (lut.is_scalar()) return std::string("scalar");
    const std::string key = template_key(lut);
    auto it = templates.find(key);
    if (it == templates.end()) {
      const std::string name =
          "tmpl_" + std::to_string(templates.size() + 1);
      it = templates.emplace(key, std::make_pair(name, &lut)).first;
    }
    return it->second.first;
  };
  for (const auto& cell : lib.cells())
    for (const auto& arc : cell.arcs)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        register_template(arc.delay(opt.el, rf));
        register_template(arc.out_slew(opt.el, rf));
      }
  for (const auto& [key, entry] : templates) {
    (void)key;
    const Lut& lut = *entry.second;
    buf << "  lu_table_template (" << entry.first << ") {\n";
    buf << "    variable_1 : input_net_transition;\n";
    if (lut.is_2d())
      buf << "    variable_2 : total_output_net_capacitance;\n";
    buf << "    index_1(\"" << join(lut.slew_index()) << "\");\n";
    if (lut.is_2d())
      buf << "    index_2(\"" << join(lut.load_index()) << "\");\n";
    buf << "  }\n";
  }
  buf << '\n';

  for (const auto& cell : lib.cells()) {
    buf << "  cell (" << cell.name << ") {\n";
    if (cell.is_sequential) {
      buf << "    ff (IQ, IQN) { clocked_on : \"CK\"; next_state : \"D\"; "
             "}\n";
    }
    for (std::uint32_t pi = 0; pi < cell.ports.size(); ++pi) {
      const CellPort& port = cell.ports[pi];
      buf << "    pin (" << port.name << ") {\n";
      buf << "      direction : "
          << (port.dir == PortDir::kInput ? "input" : "output") << ";\n";
      if (port.dir == PortDir::kInput)
        buf << "      capacitance : " << port.cap_ff << ";\n";
      if (port.is_clock) buf << "      clock : true;\n";
      // Timing groups live on the *to* pin in Liberty.
      for (const auto& arc : cell.arcs) {
        if (arc.to_port != pi) continue;
        buf << "      timing () {\n";
        buf << "        related_pin : \"" << cell.ports[arc.from_port].name
            << "\";\n";
        buf << "        timing_type : " << timing_type(arc.kind) << ";\n";
        if (arc.kind == ArcKind::kCombinational)
          buf << "        timing_sense : " << timing_sense(arc.sense)
              << ";\n";
        const char* group_names[2][2] = {{"cell_rise", "cell_fall"},
                                         {"rise_transition",
                                          "fall_transition"}};
        const bool check =
            arc.kind == ArcKind::kSetup || arc.kind == ArcKind::kHold;
        for (unsigned rf = 0; rf < kNumRf; ++rf) {
          const Lut& d = arc.delay(opt.el, rf);
          const char* gname =
              check ? (rf == kRise ? "rise_constraint" : "fall_constraint")
                    : group_names[0][rf];
          buf << "        " << gname << " (" << register_template(d)
              << ") {\n";
          write_lut_values(buf, d, "          ");
          buf << "        }\n";
          if (!check) {
            const Lut& s = arc.out_slew(opt.el, rf);
            buf << "        " << group_names[1][rf] << " ("
                << register_template(s) << ") {\n";
            write_lut_values(buf, s, "          ");
            buf << "        }\n";
          }
        }
        buf << "      }\n";
      }
      buf << "    }\n";
    }
    buf << "  }\n";
  }
  buf << "}\n";
  os << buf.str();
  return buf.size();
}

}  // namespace tmm
