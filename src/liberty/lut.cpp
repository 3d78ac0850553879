#include "liberty/lut.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "fault/fault.hpp"
#include "util/text_out.hpp"

namespace tmm {

namespace {

/// Every constructor rejects non-finite surfaces: a NaN delay entry
/// (corrupt file, poisoned re-characterization) interpolates to NaN
/// arrivals and corrupts labels and models silently otherwise.
void check_finite(const std::vector<double>& values, const char* which) {
  for (double v : values)
    if (!std::isfinite(v))
      throw fault::FlowError(fault::ErrorCode::kNumeric, "liberty.lut",
                             std::string("non-finite ") + which +
                                 " entry in lookup table");
}

}  // namespace

Lut Lut::scalar(double value) {
  Lut l;
  l.values_ = {value};
  check_finite(l.values_, "value");
  return l;
}

Lut Lut::table1d(std::vector<double> slew_index, std::vector<double> values) {
  if (slew_index.size() != values.size() || slew_index.size() < 2)
    throw std::invalid_argument("Lut::table1d: size mismatch");
  for (std::size_t i = 1; i < slew_index.size(); ++i)
    if (!(slew_index[i] > slew_index[i - 1]))
      throw std::invalid_argument("Lut::table1d: index not ascending");
  Lut l;
  l.slew_index_ = std::move(slew_index);
  l.values_ = std::move(values);
  check_finite(l.slew_index_, "index");
  check_finite(l.values_, "value");
  return l;
}

Lut Lut::table2d(std::vector<double> slew_index, std::vector<double> load_index,
                 std::vector<double> values) {
  if (slew_index.size() < 2 || load_index.size() < 2 ||
      values.size() != slew_index.size() * load_index.size())
    throw std::invalid_argument("Lut::table2d: size mismatch");
  for (std::size_t i = 1; i < slew_index.size(); ++i)
    if (!(slew_index[i] > slew_index[i - 1]))
      throw std::invalid_argument("Lut::table2d: slew index not ascending");
  for (std::size_t j = 1; j < load_index.size(); ++j)
    if (!(load_index[j] > load_index[j - 1]))
      throw std::invalid_argument("Lut::table2d: load index not ascending");
  Lut l;
  l.slew_index_ = std::move(slew_index);
  l.load_index_ = std::move(load_index);
  l.values_ = std::move(values);
  check_finite(l.slew_index_, "index");
  check_finite(l.load_index_, "index");
  check_finite(l.values_, "value");
  return l;
}

namespace interp {

std::size_t segment(std::span<const double> axis, double x) noexcept {
  assert(axis.size() >= 2);
  // Binary search for the last index i with axis[i] <= x, clamped so that
  // i+1 is valid; values outside the grid extrapolate on the end segment.
  std::size_t lo = 0;
  std::size_t hi = axis.size() - 2;
  if (x <= axis[0]) return 0;
  if (x >= axis[axis.size() - 2]) return axis.size() - 2;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (axis[mid] <= x)
      lo = mid;
    else
      hi = mid - 1;
  }
  return lo;
}

double linear(std::span<const double> axis, std::span<const double> y,
              double x) noexcept {
  const std::size_t i = segment(axis, x);
  const double x0 = axis[i];
  const double x1 = axis[i + 1];
  const double t = (x - x0) / (x1 - x0);
  return y[i] + t * (y[i + 1] - y[i]);
}

}  // namespace interp

double Lut::lookup(double slew, double load) const noexcept {
  if (is_scalar()) return values_.empty() ? 0.0 : values_[0];
  if (is_1d()) return interp::linear(slew_index_, values_, slew);

  const std::size_t nj = load_index_.size();
  const std::size_t i = interp::segment(slew_index_, slew);
  const std::size_t j = interp::segment(load_index_, load);
  const double s0 = slew_index_[i];
  const double s1 = slew_index_[i + 1];
  const double c0 = load_index_[j];
  const double c1 = load_index_[j + 1];
  const double ts = (slew - s0) / (s1 - s0);
  const double tc = (load - c0) / (c1 - c0);
  const double v00 = values_[i * nj + j];
  const double v01 = values_[i * nj + j + 1];
  const double v10 = values_[(i + 1) * nj + j];
  const double v11 = values_[(i + 1) * nj + j + 1];
  const double a = v00 + tc * (v01 - v00);
  const double b = v10 + tc * (v11 - v10);
  return a + ts * (b - a);
}

void write_lut_text(util::TextOut& out, const Lut& lut) {
  out << lut.slew_index().size() << ' ' << lut.load_index().size() << '\n';
  for (double v : lut.slew_index()) out << v << ' ';
  out << '\n';
  for (double v : lut.load_index()) out << v << ' ';
  out << '\n';
  for (double v : lut.values()) out << v << ' ';
  out << '\n';
}

}  // namespace tmm
