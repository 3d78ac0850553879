#pragma once
// Non-linear delay model (NLDM) lookup tables.
//
// A Lut maps (input slew, output load) -> value with bilinear
// interpolation inside the index grid and linear extrapolation outside,
// matching the semantics of Liberty `lu_table_template`s. Tables may be
// one-dimensional (slew only) — the form interior arcs of a macro model
// take after serial merging, since their downstream load is fixed — or
// scalar (constants such as FF setup/hold guard times).
//
// A lookup is two steps: locate() turns a coordinate into its grid
// position (segment index and interpolation weight), and at() blends
// the four (two, one) surrounding values. Callers that evaluate several
// tables on one grid — the 16 tables of a timing arc usually share
// their axes — locate once and call at() per table; lookup() is the
// same two steps, so both ways give the same bits.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tmm {

namespace util {
class TextOut;
}

class Lut {
 public:
  /// A coordinate located on one axis: the segment [axis[i], axis[i+1]]
  /// it interpolates (or extrapolates) on, and its weight t within it.
  /// Empty axes (scalar tables, the load axis of 1-D tables) locate to
  /// {0, 0}, which at() ignores.
  struct Pos {
    std::size_t i = 0;
    double t = 0.0;
  };

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

  bool is_scalar() const noexcept { return ns_ == 0 && nl_ == 0; }
  bool is_1d() const noexcept { return ns_ != 0 && nl_ == 0; }
  bool is_2d() const noexcept { return nl_ != 0; }

  std::span<const double> slew_index() const noexcept {
    return std::span<const double>(data_).first(ns_);
  }
  std::span<const double> load_index() const noexcept {
    return std::span<const double>(data_).subspan(ns_, nl_);
  }
  std::span<const double> values() const noexcept {
    return std::span<const double>(data_).subspan(std::size_t{ns_} + nl_);
  }

  /// Position of x on an ascending axis (size 0 or >= 2).
  static Pos locate(std::span<const double> axis, double x) noexcept;

  /// Blend the values around slew position `s` and load position `c`,
  /// both located on this table's own axes (or on bit-identical ones).
  /// For 1-D and scalar tables `c` (and for scalar ones `s`) is ignored.
  double at(Pos s, Pos c) const noexcept;

  /// Evaluate the table. For 1-D/scalar tables `load` is ignored.
  double lookup(double slew, double load) const noexcept {
    return at(locate(slew_index(), slew), locate(load_index(), load));
  }

  /// Number of stored doubles (index + values); drives the model-size metric.
  std::size_t storage_doubles() const noexcept { return data_.size(); }

  friend bool operator==(const Lut&, const Lut&) = default;

 private:
  /// One allocation per table: [slew index | load index | values].
  std::vector<double> data_;
  std::uint32_t ns_ = 0;  ///< slew-axis size (0 for scalar tables)
  std::uint32_t nl_ = 0;  ///< load-axis size (0 for scalar and 1-D tables)
};

/// The table's text form, shared by Library::write and the .macro
/// writer: "<slew-axis size> <load-axis size>", then the slew index, the
/// load index and the values on one line each, every number followed by
/// a space.
void write_lut_text(util::TextOut& out, const Lut& lut);

/// Piecewise-linear interpolation: the pieces every Lut lookup is built
/// from.
namespace interp {

/// Find the interpolation segment for x in the ascending grid `axis`
/// (size >= 2): returns i such that the segment [axis[i], axis[i+1]]
/// is used, clamped for extrapolation. Counted without branches as
/// #{k in 1..n-2 : axis[k] <= x}: the last i with axis[i] <= x, 0 below
/// the grid and for NaN, n-2 above it.
inline std::size_t segment(std::span<const double> axis, double x) noexcept {
  assert(axis.size() >= 2);
  std::size_t i = 0;
  for (std::size_t k = 1; k + 1 < axis.size(); ++k)
    i += static_cast<std::size_t>(axis[k] <= x);
  return i;
}

/// y0 + t * (y1 - y0): the one blend every lookup is built from.
inline double lerp(double y0, double y1, double t) noexcept {
  return y0 + t * (y1 - y0);
}

}  // namespace interp

inline Lut::Pos Lut::locate(std::span<const double> axis, double x) noexcept {
  if (axis.empty()) return {};
  const std::size_t i = interp::segment(axis, x);
  return {i, (x - axis[i]) / (axis[i + 1] - axis[i])};
}

inline double Lut::at(Pos s, Pos c) const noexcept {
  const double* v = data_.data() + ns_ + nl_;
  if (nl_ == 0) {
    if (ns_ == 0) return data_.empty() ? 0.0 : v[0];
    return interp::lerp(v[s.i], v[s.i + 1], s.t);
  }
  const double* r0 = v + s.i * nl_ + c.i;
  const double* r1 = r0 + nl_;
  const double a = interp::lerp(r0[0], r0[1], c.t);
  const double b = interp::lerp(r1[0], r1[1], c.t);
  return interp::lerp(a, b, s.t);
}

}  // namespace tmm
