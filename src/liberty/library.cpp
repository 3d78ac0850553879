#include "liberty/library.hpp"

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

}  // namespace tmm
