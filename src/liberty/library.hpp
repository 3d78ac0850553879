#pragma once
// Cell library container with name lookup and text serialization.
// The same text format is reused for macro-model storage, which is what
// the "model file size" columns of Tables 3-5 measure.

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/cell.hpp"

namespace tmm {

class Library {
 public:
  Library() = default;
  explicit Library(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Add a cell; its name must be unique. Returns its id.
  CellId add_cell(Cell cell);

  const Cell& cell(CellId id) const { return cells_.at(id); }
  CellId cell_id(const std::string& cell_name) const;
  bool has_cell(const std::string& cell_name) const {
    return by_name_.count(cell_name) != 0;
  }
  std::size_t num_cells() const noexcept { return cells_.size(); }
  const std::vector<Cell>& cells() const noexcept { return cells_; }

  /// Serialize to a compact text format; returns bytes written.
  std::size_t write(std::ostream& os) const;

 private:
  std::string name_ = "lib";
  std::vector<Cell> cells_;
  std::unordered_map<std::string, CellId> by_name_;
};

}  // namespace tmm
