#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "liberty/library_gen.hpp"
#include "liberty/lut.hpp"
#include "util/rng.hpp"

namespace tmm {
namespace {

TEST(Lut, ScalarAlwaysReturnsValue) {
  const Lut l = Lut::scalar(3.5);
  EXPECT_TRUE(l.is_scalar());
  EXPECT_DOUBLE_EQ(l.lookup(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(l.lookup(100, -5), 3.5);
}

TEST(Lut, Table1dExactAtGridPoints) {
  const Lut l = Lut::table1d({1, 2, 4}, {10, 20, 40});
  EXPECT_DOUBLE_EQ(l.lookup(1, 0), 10);
  EXPECT_DOUBLE_EQ(l.lookup(2, 99), 20);
  EXPECT_DOUBLE_EQ(l.lookup(4, 0), 40);
}

TEST(Lut, Table1dInterpolates) {
  const Lut l = Lut::table1d({0, 10}, {0, 100});
  EXPECT_DOUBLE_EQ(l.lookup(2.5, 0), 25.0);
  EXPECT_DOUBLE_EQ(l.lookup(7.5, 0), 75.0);
}

TEST(Lut, Table1dExtrapolatesLinearly) {
  const Lut l = Lut::table1d({0, 10}, {0, 100});
  EXPECT_DOUBLE_EQ(l.lookup(-5, 0), -50.0);
  EXPECT_DOUBLE_EQ(l.lookup(20, 0), 200.0);
}

TEST(Lut, Table2dExactAtGridPoints) {
  const Lut l = Lut::table2d({1, 2}, {10, 20}, {100, 200, 300, 400});
  EXPECT_DOUBLE_EQ(l.lookup(1, 10), 100);
  EXPECT_DOUBLE_EQ(l.lookup(1, 20), 200);
  EXPECT_DOUBLE_EQ(l.lookup(2, 10), 300);
  EXPECT_DOUBLE_EQ(l.lookup(2, 20), 400);
}

TEST(Lut, Table2dBilinearCenter) {
  const Lut l = Lut::table2d({0, 2}, {0, 2}, {0, 2, 2, 4});  // f = x + y
  EXPECT_DOUBLE_EQ(l.lookup(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(l.lookup(0.5, 1.5), 2.0);
}

TEST(Lut, Table2dCornerExtrapolation) {
  const Lut l = Lut::table2d({0, 1}, {0, 1}, {0, 1, 1, 2});  // f = x + y
  EXPECT_DOUBLE_EQ(l.lookup(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(l.lookup(-1, 0), -1.0);
}

// --- corner interpolation ---------------------------------------------
//
// Pins down the exact behavior at and beyond grid corners: bilinear in
// the interior, and *linear* extrapolation outside the grid using the
// clamped end segment's slope (Liberty lu_table semantics). These are
// the cases the serving engine's quantized cache keys exercise hardest,
// since quantization can push constraints right onto grid edges.

TEST(Lut, Table1dEndSegmentSlopeGovernsExtrapolation) {
  // Slopes differ per segment: [0,10]→10/unit, [10,30]→5/unit.
  const Lut l = Lut::table1d({0, 10, 30}, {0, 100, 200});
  // Below range: first segment's slope extends leftward.
  EXPECT_DOUBLE_EQ(l.lookup(-2, 0), -20.0);
  // Above range: last segment's slope extends rightward.
  EXPECT_DOUBLE_EQ(l.lookup(40, 0), 250.0);
  // Exactly at the corners: grid values, no interpolation error.
  EXPECT_DOUBLE_EQ(l.lookup(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(l.lookup(30, 0), 200.0);
}

TEST(Lut, Table2dExactAtAllFourCorners) {
  const Lut l = Lut::table2d({1, 2, 4}, {10, 20, 40},
                             {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_DOUBLE_EQ(l.lookup(1, 10), 1.0);
  EXPECT_DOUBLE_EQ(l.lookup(1, 40), 3.0);
  EXPECT_DOUBLE_EQ(l.lookup(4, 10), 7.0);
  EXPECT_DOUBLE_EQ(l.lookup(4, 40), 9.0);
}

TEST(Lut, Table2dEdgeExtrapolationOneAxisOutside) {
  // f = x + y on a 2x2 grid; one coordinate inside, the other outside.
  const Lut l = Lut::table2d({0, 1}, {0, 1}, {0, 1, 1, 2});
  EXPECT_DOUBLE_EQ(l.lookup(0.5, 3), 3.5);   // load beyond range
  EXPECT_DOUBLE_EQ(l.lookup(3, 0.5), 3.5);   // slew beyond range
  EXPECT_DOUBLE_EQ(l.lookup(0.5, -2), -1.5); // load below range
  EXPECT_DOUBLE_EQ(l.lookup(-2, 0.5), -1.5); // slew below range
}

TEST(Lut, Table2dCornerExtrapolationUsesEndSegmentPlane) {
  // 3x3 grid whose end segments have different slopes than the interior:
  // f(x,y) selected so the last x-segment [2,4] and last y-segment
  // [20,40] define the plane used past the (4,40) corner.
  const Lut l = Lut::table2d({0, 2, 4}, {0, 20, 40},
                             {0, 0, 0, 0, 0, 0, 0, 0, 8});
  // Inside the last cell: bilinear toward the lone nonzero corner.
  EXPECT_DOUBLE_EQ(l.lookup(3, 30), 2.0);  // (0.5)*(0.5)*8
  // Past the corner on both axes: same bilinear form extended,
  // frac_x = (6-2)/(4-2) = 2, frac_y = (60-20)/(40-20) = 2 → 2*2*8.
  EXPECT_DOUBLE_EQ(l.lookup(6, 60), 32.0);
}

TEST(Lut, Table2dOnGridLineInterpolatesAlongOtherAxis) {
  const Lut l = Lut::table2d({1, 3}, {10, 30}, {0, 20, 40, 60});
  // Exactly on slew grid line x=3: pure 1-D interpolation in load.
  EXPECT_DOUBLE_EQ(l.lookup(3, 20), 50.0);
  // Exactly on load grid line y=10: pure 1-D interpolation in slew.
  EXPECT_DOUBLE_EQ(l.lookup(2, 10), 20.0);
}

TEST(Lut, RejectsMalformedInputs) {
  EXPECT_THROW(Lut::table1d({1}, {2}), std::invalid_argument);
  EXPECT_THROW(Lut::table1d({2, 1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(Lut::table1d({1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(Lut::table2d({1, 2}, {1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(Lut::table2d({1, 2}, {2, 1}, {1, 2, 3, 4}),
               std::invalid_argument);
}

TEST(Lut, StorageDoublesCounts) {
  EXPECT_EQ(Lut::scalar(1).storage_doubles(), 1u);
  EXPECT_EQ(Lut::table1d({1, 2}, {1, 2}).storage_doubles(), 4u);
  EXPECT_EQ(Lut::table2d({1, 2}, {1, 2, 3}, std::vector<double>(6, 0.0))
                .storage_doubles(),
            11u);
}

TEST(InterpSegment, FindsEnclosingSegment) {
  const std::vector<double> axis{1, 2, 4, 8};
  EXPECT_EQ(interp::segment(axis, 0.5), 0u);
  EXPECT_EQ(interp::segment(axis, 1.5), 0u);
  EXPECT_EQ(interp::segment(axis, 3.0), 1u);
  EXPECT_EQ(interp::segment(axis, 5.0), 2u);
  EXPECT_EQ(interp::segment(axis, 100.0), 2u);
}

// --- exactness of locate/at -------------------------------------------
//
// Lut::lookup and the engine's shared-grid path both evaluate
// at(locate(slew), locate(load)). These tests pin that form, and the
// branchless interp::segment, bit for bit against a copy of the
// binary-search lookup it replaced.

namespace ref {

std::size_t segment(std::span<const double> axis, double x) {
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
              double x) {
  const std::size_t i = segment(axis, x);
  const double x0 = axis[i];
  const double x1 = axis[i + 1];
  const double t = (x - x0) / (x1 - x0);
  return y[i] + t * (y[i + 1] - y[i]);
}

double lookup(const Lut& l, double slew, double load) {
  const auto si = l.slew_index();
  const auto li = l.load_index();
  const auto v = l.values();
  if (l.is_scalar()) return v.empty() ? 0.0 : v[0];
  if (l.is_1d()) return linear(si, v, slew);
  const std::size_t nj = li.size();
  const std::size_t i = segment(si, slew);
  const std::size_t j = segment(li, load);
  const double ts = (slew - si[i]) / (si[i + 1] - si[i]);
  const double tc = (load - li[j]) / (li[j + 1] - li[j]);
  const double v00 = v[i * nj + j];
  const double v01 = v[i * nj + j + 1];
  const double v10 = v[(i + 1) * nj + j];
  const double v11 = v[(i + 1) * nj + j + 1];
  const double a = v00 + tc * (v01 - v00);
  const double b = v10 + tc * (v11 - v10);
  return a + ts * (b - a);
}

}  // namespace ref

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Probe coordinates for an axis: every knot, the midpoints, points
/// outside the grid on both sides, and the IEEE special values.
std::vector<double> probes(std::span<const double> axis) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs{0.0,
                         -0.0,
                         inf,
                         -inf,
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min() / 4,
                         std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max(),
                         1e-300,
                         3.7};
  for (std::size_t k = 0; k < axis.size(); ++k) {
    xs.push_back(axis[k]);
    xs.push_back(std::nextafter(axis[k], inf));
    xs.push_back(std::nextafter(axis[k], -inf));
    if (k + 1 < axis.size()) xs.push_back(0.5 * (axis[k] + axis[k + 1]));
  }
  if (!axis.empty()) {
    const double span = axis.back() - axis.front();
    xs.push_back(axis.front() - 0.3 * span);
    xs.push_back(axis.back() + 0.7 * span);
    xs.push_back(axis.back() * 100);
  }
  return xs;
}

std::vector<Lut> exactness_tables() {
  std::vector<Lut> tables{
      Lut{},
      Lut::scalar(3.5),
      Lut::scalar(-0.0),
      Lut::table1d({1, 2}, {10, -20}),
      Lut::table1d({-1, 0, 0.5, 3, 9}, {0.0, -0.0, 1e-310, 4, 4}),
      Lut::table2d({0, 2}, {0, 2}, {0, 2, 2, 4}),
      Lut::table2d({-2, 0, 1.5}, {0.25, 1, 4, 16},
                   {1, 2, 3, 4, -5, 6, 7, 8, 9, 10, 0, -0.0}),
  };
  LibraryGenConfig cfg;
  DriveModel model;
  ElRf<Lut> delay;
  ElRf<Lut> slew;
  characterize(model, cfg, delay, slew);
  tables.push_back(delay(kLate, kRise));
  tables.push_back(slew(kEarly, kFall));
  return tables;
}

TEST(LutExact, SegmentMatchesBinarySearchBitForBit) {
  const std::vector<std::vector<double>> axes{
      {0, 1},
      {-0.0, 1},
      {1, 2, 4},
      {1, 2, 4, 8},
      {-3, -1, 0, 2.5, 7, 11, 40},
      {1e-310, 1e-300, 1, 1e300},
      {0.5, 1, 2, 4, 8, 16, 32, 64, 128}};
  for (const auto& axis : axes)
    for (double x : probes(axis))
      EXPECT_EQ(interp::segment(axis, x), ref::segment(axis, x))
          << "axis size " << axis.size() << " x=" << x;
}

TEST(LutExact, LookupMatchesBinarySearchLookupBitForBit) {
  std::size_t compared = 0;
  for (const Lut& l : exactness_tables()) {
    std::vector<double> slews = probes(l.slew_index());
    std::vector<double> loads = probes(l.load_index());
    for (double s : slews)
      for (double c : loads) {
        const double want = ref::lookup(l, s, c);
        ASSERT_EQ(bits(l.lookup(s, c)), bits(want))
            << "slew=" << s << " load=" << c;
        ASSERT_EQ(bits(l.at(Lut::locate(l.slew_index(), s),
                            Lut::locate(l.load_index(), c))),
                  bits(want))
            << "slew=" << s << " load=" << c;
        ++compared;
      }
  }
  EXPECT_GT(compared, 1000u);
}

TEST(LutExact, LinearMatchesBinarySearchLinearBitForBit) {
  const std::vector<double> axis{-1, 0, 0.5, 3, 9};
  const std::vector<double> y{0.0, -0.0, 1e-310, 4, -4};
  const Lut l = Lut::table1d(axis, y);
  for (double x : probes(axis))
    EXPECT_EQ(bits(l.lookup(x, 0.0)), bits(ref::linear(axis, y, x)))
        << "x=" << x;
}

TEST(LutExact, LocateOnEmptyAxisIsOrigin) {
  const Lut::Pos p = Lut::locate({}, 42.0);
  EXPECT_EQ(p.i, 0u);
  EXPECT_EQ(bits(p.t), bits(0.0));
}

TEST(Lut, OneBufferKeepsAccessorsAndEquality) {
  const Lut l = Lut::table2d({1, 2, 3}, {10, 20}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(std::vector<double>(l.slew_index().begin(), l.slew_index().end()),
            (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(std::vector<double>(l.load_index().begin(), l.load_index().end()),
            (std::vector<double>{10, 20}));
  EXPECT_EQ(std::vector<double>(l.values().begin(), l.values().end()),
            (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(l.is_2d());
  // Equality compares shape and contents.
  const Lut a = Lut::table1d({1, 2}, {3, 4});
  const Lut b = Lut::table2d({1, 2}, {3, 4}, {0, 0, 0, 0});
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == Lut::table1d({1, 2}, {3, 4}));
  EXPECT_FALSE(a == Lut::table1d({1, 2}, {3, 5}));
  EXPECT_TRUE(Lut{}.is_scalar());
  EXPECT_TRUE(Lut{}.values().empty());
  EXPECT_EQ(Lut{}.lookup(1, 1), 0.0);
}

// --- generated surfaces ----------------------------------------------

class GeneratedSurface : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedSurface, LutApproximatesAnalyticModelBetweenGridPoints) {
  LibraryGenConfig cfg;
  DriveModel model;
  model.intrinsic_ps = 8.0 + GetParam();
  model.res_kohm = 1.5 + 0.3 * GetParam();
  ElRf<Lut> delay;
  ElRf<Lut> slew;
  characterize(model, cfg, delay, slew);
  Rng rng(100 + GetParam());
  for (int i = 0; i < 200; ++i) {
    const double s = rng.uniform(1.0, 120.0);
    const double c = rng.uniform(0.5, 32.0);
    const double exact = model.delay(s, c);
    const double approx = delay(kLate, kRise).lookup(s, c);
    EXPECT_NEAR(approx, exact, 0.05 * exact + 0.2)
        << "slew=" << s << " load=" << c;
  }
}

TEST_P(GeneratedSurface, MonotoneInSlewAndLoad) {
  LibraryGenConfig cfg;
  DriveModel model;
  model.slew_coef = 0.1 + 0.02 * GetParam();
  ElRf<Lut> delay;
  ElRf<Lut> slew;
  characterize(model, cfg, delay, slew);
  const auto& lut = delay(kLate, kFall);
  for (double s = 1; s < 110; s += 7)
    for (double c = 0.5; c < 30; c += 3) {
      EXPECT_LE(lut.lookup(s, c), lut.lookup(s + 5, c) + 1e-9);
      EXPECT_LE(lut.lookup(s, c), lut.lookup(s, c + 2) + 1e-9);
    }
}

TEST_P(GeneratedSurface, EarlyBelowLate) {
  LibraryGenConfig cfg;
  DriveModel model;
  ElRf<Lut> delay;
  ElRf<Lut> slew;
  model.intrinsic_ps += GetParam();
  characterize(model, cfg, delay, slew);
  Rng rng(7 + GetParam());
  for (int i = 0; i < 100; ++i) {
    const double s = rng.uniform(1.0, 120.0);
    const double c = rng.uniform(0.5, 32.0);
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      EXPECT_LT(delay(kEarly, rf).lookup(s, c), delay(kLate, rf).lookup(s, c));
      EXPECT_LT(slew(kEarly, rf).lookup(s, c), slew(kLate, rf).lookup(s, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeneratedSurface, ::testing::Range(0, 5));

}  // namespace
}  // namespace tmm
