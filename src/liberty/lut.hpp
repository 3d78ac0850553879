#pragma once
// Non-linear delay model (NLDM) lookup tables.
//
// A Lut maps (input slew, output load) -> value with bilinear
// interpolation inside the index grid and linear extrapolation outside,
// matching the semantics of Liberty `lu_table_template`s. Tables may be
// one-dimensional (slew only) — the form interior arcs of a macro model
// take after serial merging, since their downstream load is fixed — or
// scalar (constants such as FF setup/hold guard times).

#include <cstddef>
#include <span>
#include <vector>

namespace tmm {

namespace util {
class TextOut;
}

class Lut {
 public:
  /// Scalar table (constant value).
  static Lut scalar(double value);
  /// 1-D table over input slew.
  static Lut table1d(std::vector<double> slew_index,
                     std::vector<double> values);
  /// 2-D table over (input slew, output load), row-major:
  /// values[i * load_index.size() + j] = f(slew_index[i], load_index[j]).
  static Lut table2d(std::vector<double> slew_index,
                     std::vector<double> load_index,
                     std::vector<double> values);

  Lut() = default;

  bool is_scalar() const noexcept {
    return slew_index_.empty() && load_index_.empty();
  }
  bool is_1d() const noexcept {
    return !slew_index_.empty() && load_index_.empty();
  }
  bool is_2d() const noexcept { return !load_index_.empty(); }

  std::span<const double> slew_index() const noexcept { return slew_index_; }
  std::span<const double> load_index() const noexcept { return load_index_; }
  std::span<const double> values() const noexcept { return values_; }

  /// Evaluate the table. For 1-D/scalar tables `load` is ignored.
  double lookup(double slew, double load) const noexcept;

  /// Number of stored doubles (index + values); drives the model-size metric.
  std::size_t storage_doubles() const noexcept {
    return slew_index_.size() + load_index_.size() + values_.size();
  }

  friend bool operator==(const Lut&, const Lut&) = default;

 private:
  std::vector<double> slew_index_;
  std::vector<double> load_index_;
  std::vector<double> values_;
};

/// The table's text form, shared by Library::write and the .macro
/// writer: "<slew-axis size> <load-axis size>", then the slew index, the
/// load index and the values on one line each, every number followed by
/// a space.
void write_lut_text(util::TextOut& out, const Lut& lut);

/// Piecewise-linear interpolation helpers shared with index selection.
namespace interp {

/// Find the interpolation segment for x in the ascending grid `axis`
/// (size >= 2): returns i such that the segment [axis[i], axis[i+1]]
/// is used, clamped for extrapolation.
std::size_t segment(std::span<const double> axis, double x) noexcept;

/// 1-D linear interpolation/extrapolation of y(axis) at x.
double linear(std::span<const double> axis, std::span<const double> y,
              double x) noexcept;

}  // namespace interp

}  // namespace tmm
