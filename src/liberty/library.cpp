#include "liberty/library.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/text_out.hpp"

namespace tmm {

CellId Library::add_cell(Cell cell) {
  auto [it, inserted] =
      by_name_.emplace(cell.name, static_cast<CellId>(cells_.size()));
  if (!inserted)
    throw std::invalid_argument("Library::add_cell: duplicate cell " +
                                cell.name);
  cells_.push_back(std::move(cell));
  return it->second;
}

CellId Library::cell_id(const std::string& cell_name) const {
  auto it = by_name_.find(cell_name);
  if (it == by_name_.end())
    throw std::out_of_range("Library::cell_id: unknown cell " + cell_name);
  return it->second;
}

namespace {

void write_lut(util::TextOut& out, const Lut& lut) {
  out << "lut ";
  write_lut_text(out, lut);
}

Lut read_lut(std::istream& is) {
  std::string tag;
  std::size_t ni = 0;
  std::size_t nj = 0;
  is >> tag >> ni >> nj;
  if (tag != "lut") throw std::runtime_error("Library: expected 'lut' tag");
  std::vector<double> idx1(ni);
  std::vector<double> idx2(nj);
  for (auto& v : idx1) is >> v;
  for (auto& v : idx2) is >> v;
  std::size_t nvals = ni == 0 ? 1 : ni * std::max<std::size_t>(nj, 1);
  std::vector<double> vals(nvals);
  for (auto& v : vals) is >> v;
  if (!is) throw std::runtime_error("Library: truncated lut");
  if (ni == 0) return Lut::scalar(vals[0]);
  if (nj == 0) return Lut::table1d(std::move(idx1), std::move(vals));
  return Lut::table2d(std::move(idx1), std::move(idx2), std::move(vals));
}

std::string format_library(const Library& lib) {
  util::TextOut buf(9);
  buf << "library " << lib.name() << ' ' << lib.cells().size() << '\n';
  for (const auto& c : lib.cells()) {
    buf << "cell " << c.name << ' ' << c.ports.size() << ' ' << c.arcs.size()
        << ' ' << (c.is_sequential ? 1 : 0) << '\n';
    for (const auto& p : c.ports) {
      buf << "port " << p.name << ' '
          << (p.dir == PortDir::kInput ? "in" : "out") << ' ' << p.cap_ff
          << ' ' << (p.is_clock ? 1 : 0) << '\n';
    }
    for (const auto& a : c.arcs) {
      buf << "arc " << a.from_port << ' ' << a.to_port << ' '
          << static_cast<int>(a.kind) << ' ' << static_cast<int>(a.sense)
          << '\n';
      for (unsigned el = 0; el < kNumEl; ++el)
        for (unsigned rf = 0; rf < kNumRf; ++rf) write_lut(buf, a.delay(el, rf));
      for (unsigned el = 0; el < kNumEl; ++el)
        for (unsigned rf = 0; rf < kNumRf; ++rf)
          write_lut(buf, a.out_slew(el, rf));
    }
  }
  return std::move(buf).take();
}

}  // namespace

std::size_t Library::write(std::ostream& os) const {
  const std::string s = format_library(*this);
  os << s;
  return s.size();
}

Library Library::read(std::istream& is) {
  std::string tag;
  std::string name;
  std::size_t ncells = 0;
  is >> tag >> name >> ncells;
  if (tag != "library")
    throw std::runtime_error("Library: expected 'library' tag");
  Library lib(name);
  for (std::size_t ci = 0; ci < ncells; ++ci) {
    std::size_t nports = 0;
    std::size_t narcs = 0;
    int seq = 0;
    Cell cell;
    is >> tag >> cell.name >> nports >> narcs >> seq;
    if (tag != "cell") throw std::runtime_error("Library: expected 'cell'");
    cell.is_sequential = seq != 0;
    cell.ports.resize(nports);
    for (auto& p : cell.ports) {
      std::string dir;
      int clk = 0;
      is >> tag >> p.name >> dir >> p.cap_ff >> clk;
      if (tag != "port") throw std::runtime_error("Library: expected 'port'");
      p.dir = dir == "in" ? PortDir::kInput : PortDir::kOutput;
      p.is_clock = clk != 0;
    }
    cell.arcs.resize(narcs);
    for (auto& a : cell.arcs) {
      int kind = 0;
      int sense = 0;
      is >> tag >> a.from_port >> a.to_port >> kind >> sense;
      if (tag != "arc") throw std::runtime_error("Library: expected 'arc'");
      a.kind = static_cast<ArcKind>(kind);
      a.sense = static_cast<ArcSense>(sense);
      for (unsigned el = 0; el < kNumEl; ++el)
        for (unsigned rf = 0; rf < kNumRf; ++rf) a.delay(el, rf) = read_lut(is);
      for (unsigned el = 0; el < kNumEl; ++el)
        for (unsigned rf = 0; rf < kNumRf; ++rf)
          a.out_slew(el, rf) = read_lut(is);
    }
    lib.add_cell(std::move(cell));
  }
  return lib;
}

std::size_t Library::serialized_size() const {
  return format_library(*this).size();
}

}  // namespace tmm
