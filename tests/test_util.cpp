#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/instrument.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/text_out.hpp"

namespace tmm {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(3.0, 9.5);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 9.5);
  }
}

TEST(Rng, BelowStaysBelow) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(10);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng r(12);
  Rng f = r.fork(1);
  Rng g = r.fork(2);
  EXPECT_NE(f(), g());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  RunningStats a;
  RunningStats b;
  RunningStats whole;
  Rng r(13);
  for (int i = 0; i < 500; ++i) {
    const double v = r.uniform(-3, 7);
    (i % 2 ? a : b).add(v);
    whole.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(-4.0);   // clamps into first bin
  h.add(99.0);   // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_FALSE(h.ascii().empty());
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Standardize, ZeroMeanUnitVariance) {
  std::vector<double> v{1, 2, 3, 4, 5};
  standardize(v);
  double mean = 0;
  for (double x : v) mean += x;
  EXPECT_NEAR(mean / 5.0, 0.0, 1e-12);
  double var = 0;
  for (double x : v) var += x * x;
  EXPECT_NEAR(var / 5.0, 1.0, 1e-12);
}

TEST(Standardize, ConstantInputBecomesZero) {
  std::vector<double> v{3, 3, 3};
  standardize(v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(AsciiTable, FormatsRows) {
  AsciiTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiTable, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::integer(-42), "-42");
}

TEST(Instrument, RssReadable) {
  EXPECT_GT(current_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);
}

TEST(Instrument, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * 1024 * 1024), "2.00 MB");
}

TEST(Instrument, StopwatchAdvances) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.seconds(), 0.0);
}

/// Formats `v` through TextOut, printf "%.*g" and an ostream at
/// precision(`prec`); the three must agree byte for byte. Returns the
/// number of mismatches, reporting the first few.
template <typename T>
int count_format_mismatches(int prec, T v, std::ostringstream& os) {
  util::TextOut out(prec);
  out << v;
  char want[64];
  std::snprintf(want, sizeof want, "%.*g", prec, static_cast<double>(v));
  os.str("");
  os << v;
  if (out.str() == want && os.str() == want) return 0;
  static int reported = 0;
  if (reported++ < 10)
    ADD_FAILURE() << "precision " << prec << ": TextOut '" << out.str()
                  << "', printf '" << want << "', ostream '" << os.str()
                  << "'";
  return 1;
}

TEST(TextOut, MatchesPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials{
      0.0,          -0.0,        kInf,         -kInf,      kNan,
      -kNan,        DBL_MIN,     -DBL_MIN,     DBL_MAX,    -DBL_MAX,
      DBL_TRUE_MIN, DBL_MIN / 3, -DBL_MIN / 7, 999999999.5, 1e9,
      1e10,         1e-5,        1e-4,         0.1,        1.0 / 3,
      123456.5,     1e16,        1e17,         9.99999999e-5, 12.0};
  for (const int prec : {6, 9, 17}) {
    std::ostringstream os;
    os.precision(prec);
    int bad = 0;
    for (const double v : specials) bad += count_format_mismatches(prec, v, os);
    Rng rng(static_cast<std::uint64_t>(prec));
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t bits = rng();
      double v = 0.0;
      std::memcpy(&v, &bits, sizeof v);
      bad += count_format_mismatches(prec, v, os);
    }
    EXPECT_EQ(bad, 0) << "precision " << prec;
  }

  // GnnModel weights: floats at 9 digits.
  std::ostringstream os;
  os.precision(9);
  int bad = 0;
  for (const double v : specials)
    bad += count_format_mismatches(9, static_cast<float>(v), os);
  for (const float v : {FLT_MIN, -FLT_MAX, FLT_TRUE_MIN, 16777217.0f})
    bad += count_format_mismatches(9, v, os);
  Rng rng(32);
  for (int i = 0; i < 100'000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng());
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof v);
    bad += count_format_mismatches(9, v, os);
  }
  EXPECT_EQ(bad, 0) << "float";
}

TEST(TextOut, AppendsIntegersAndTextInOrder) {
  util::TextOut out(9);
  out << "n " << std::numeric_limits<std::int64_t>::min() << ' '
      << std::numeric_limits<std::uint64_t>::max() << ' ' << -1 << ' '
      << std::uint32_t{0} << ' ' << std::string("x") << '\n';
  const std::string want =
      "n -9223372036854775808 18446744073709551615 -1 0 x\n";
  EXPECT_EQ(out.str(), want);
  EXPECT_EQ(out.size(), want.size());
  EXPECT_EQ(std::move(out).take(), want);
}

}  // namespace
}  // namespace tmm
