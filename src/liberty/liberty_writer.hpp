#pragma once
// Liberty-syntax (.lib) exporter for the generated cell library.
//
// The internal text format (Library::write) is compact and loss-free;
// this writer instead emits genuine Liberty syntax — `library`, `cell`,
// `pin`, `timing` groups with `lu_table_template`s — so the generated
// library can be inspected with standard EDA tooling and diffed against
// real libraries. One file per corner (early/late), as TAU-style flows
// ship them.

#include <iosfwd>

#include "liberty/library.hpp"

namespace tmm {

struct LibertyWriteOptions {
  /// Which corner's tables to emit (Liberty files are per-corner).
  unsigned el = kLate;
};

/// Emit the library in Liberty syntax; returns bytes written.
std::size_t write_liberty(const Library& lib, std::ostream& os,
                          const LibertyWriteOptions& opt = {});

}  // namespace tmm
