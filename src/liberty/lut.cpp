#include "liberty/lut.hpp"

#include <cmath>
#include <stdexcept>

#include "fault/fault.hpp"
#include "util/text_out.hpp"

namespace tmm {

namespace {

/// Every constructor rejects non-finite surfaces: a NaN delay entry
/// (corrupt file, poisoned re-characterization) interpolates to NaN
/// arrivals and corrupts labels and models silently otherwise.
void check_finite(std::span<const double> values, const char* which) {
  for (double v : values)
    if (!std::isfinite(v))
      throw fault::FlowError(fault::ErrorCode::kNumeric, "liberty.lut",
                             std::string("non-finite ") + which +
                                 " entry in lookup table");
}

bool ascending(std::span<const double> axis) {
  for (std::size_t i = 1; i < axis.size(); ++i)
    if (!(axis[i] > axis[i - 1])) return false;
  return true;
}

}  // namespace

Lut Lut::scalar(double value) {
  check_finite({&value, 1}, "value");
  Lut l;
  l.data_ = {value};
  return l;
}

Lut Lut::table1d(std::vector<double> slew_index, std::vector<double> values) {
  if (slew_index.size() != values.size() || slew_index.size() < 2)
    throw std::invalid_argument("Lut::table1d: size mismatch");
  if (!ascending(slew_index))
    throw std::invalid_argument("Lut::table1d: index not ascending");
  check_finite(slew_index, "index");
  check_finite(values, "value");
  Lut l;
  l.ns_ = static_cast<std::uint32_t>(slew_index.size());
  l.data_.reserve(slew_index.size() + values.size());
  l.data_.insert(l.data_.end(), slew_index.begin(), slew_index.end());
  l.data_.insert(l.data_.end(), values.begin(), values.end());
  return l;
}

Lut Lut::table2d(std::vector<double> slew_index, std::vector<double> load_index,
                 std::vector<double> values) {
  if (slew_index.size() < 2 || load_index.size() < 2 ||
      values.size() != slew_index.size() * load_index.size())
    throw std::invalid_argument("Lut::table2d: size mismatch");
  if (!ascending(slew_index))
    throw std::invalid_argument("Lut::table2d: slew index not ascending");
  if (!ascending(load_index))
    throw std::invalid_argument("Lut::table2d: load index not ascending");
  check_finite(slew_index, "index");
  check_finite(load_index, "index");
  check_finite(values, "value");
  Lut l;
  l.ns_ = static_cast<std::uint32_t>(slew_index.size());
  l.nl_ = static_cast<std::uint32_t>(load_index.size());
  l.data_.reserve(slew_index.size() + load_index.size() + values.size());
  l.data_.insert(l.data_.end(), slew_index.begin(), slew_index.end());
  l.data_.insert(l.data_.end(), load_index.begin(), load_index.end());
  l.data_.insert(l.data_.end(), values.begin(), values.end());
  return l;
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
