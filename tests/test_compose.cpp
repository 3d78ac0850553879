#include <gtest/gtest.h>

#include <cmath>

#include "macro/compose.hpp"
#include "macro/index_selection.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

TEST(ComposeSense, Algebra) {
  using S = ArcSense;
  EXPECT_EQ(compose_sense(S::kPositiveUnate, S::kPositiveUnate),
            S::kPositiveUnate);
  EXPECT_EQ(compose_sense(S::kPositiveUnate, S::kNegativeUnate),
            S::kNegativeUnate);
  EXPECT_EQ(compose_sense(S::kNegativeUnate, S::kNegativeUnate),
            S::kPositiveUnate);
  EXPECT_EQ(compose_sense(S::kNonUnate, S::kPositiveUnate), S::kNonUnate);
  EXPECT_EQ(compose_sense(S::kNegativeUnate, S::kNonUnate), S::kNonUnate);
}

TEST(EvalArc, WireArcSemantics) {
  GraphArc a;
  a.kind = GraphArcKind::kWire;
  a.wire_delay_ps = 3.0;
  const ArcEval e = eval_arc(a, kLate, kRise, 10.0, 99.0);
  EXPECT_DOUBLE_EQ(e.delay, 3.0);
  EXPECT_DOUBLE_EQ(e.out_slew, wire_slew(10.0, 3.0));
}

TEST(ComposeParallel, TakesWorstCaseEnvelope) {
  const Library& lib = test::shared_library();
  const ArcSpec& fast = lib.cell(lib.cell_id("BUF_X4")).arcs[0];
  const ArcSpec& slow = lib.cell(lib.cell_id("BUF_X1")).arcs[0];
  TimingGraph g;
  GraphArc a;
  a.kind = GraphArcKind::kCell;
  a.sense = fast.sense;
  a.delay = &fast.delay;
  a.out_slew = &fast.out_slew;
  GraphArc b = a;
  b.delay = &slow.delay;
  b.out_slew = &slow.out_slew;
  const ComposedTables ct = compose_parallel(g, a, b, 4.0, {});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double s = rng.uniform(1.0, 100.0);
    const double c = rng.uniform(0.5, 30.0);
    const double late_a = fast.delay(kLate, kRise).lookup(s, c);
    const double late_b = slow.delay(kLate, kRise).lookup(s, c);
    EXPECT_NEAR(ct.delay(kLate, kRise).lookup(s, c),
                std::max(late_a, late_b), 0.5);
    const double early_a = fast.delay(kEarly, kRise).lookup(s, c);
    const double early_b = slow.delay(kEarly, kRise).lookup(s, c);
    EXPECT_NEAR(ct.delay(kEarly, kRise).lookup(s, c),
                std::min(early_a, early_b), 0.5);
  }
}

// ---------------------------------------------------------- selection

TEST(IndexSelection, KeepsEndpoints) {
  const std::vector<double> xs{0, 1, 2, 3, 4};
  const std::vector<std::vector<double>> fs{{0, 1, 2, 3, 4}};
  const auto sel = select_indices(xs, fs, {.max_points = 3});
  ASSERT_GE(sel.size(), 2u);
  EXPECT_EQ(sel.front(), 0u);
  EXPECT_EQ(sel.back(), 4u);
}

TEST(IndexSelection, LinearFunctionNeedsOnlyEndpoints) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 1.0);
  }
  const std::vector<std::vector<double>> fs{ys};
  const auto sel = select_indices(xs, fs, {.max_points = 7});
  EXPECT_EQ(sel.size(), 2u);  // tolerance met immediately
}

TEST(IndexSelection, PicksTheKink) {
  // Piecewise-linear with a kink at x=5: the third point must be there.
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back(i <= 5 ? static_cast<double>(i) : 5.0 + 3.0 * (i - 5));
  }
  const std::vector<std::vector<double>> fs{ys};
  const auto sel = select_indices(xs, fs, {.max_points = 3});
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[1], 5u);
  EXPECT_LT(interpolation_error(xs, ys, sel), 1e-12);
}

TEST(IndexSelection, MorePointsNeverWorse) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 40; ++i) {
    xs.push_back(i * 0.25);
    ys.push_back(std::sqrt(1.0 + xs.back()) * 10.0);
  }
  const std::vector<std::vector<double>> fs{ys};
  double prev = 1e18;
  for (std::size_t k = 2; k <= 8; ++k) {
    const auto sel = select_indices(xs, fs, {.max_points = k, .tolerance_ps = 0});
    const double err = interpolation_error(xs, ys, sel);
    EXPECT_LE(err, prev + 1e-12);
    prev = err;
  }
  EXPECT_LT(prev, 0.25);
}

TEST(IndexSelection, JointSelectionCoversAllFunctions) {
  std::vector<double> xs;
  for (int i = 0; i <= 10; ++i) xs.push_back(i);
  std::vector<double> f1(11), f2(11);
  for (int i = 0; i <= 10; ++i) {
    f1[i] = i <= 3 ? i : 3.0 + 2.0 * (i - 3);   // kink at 3
    f2[i] = i <= 7 ? i : 7.0 + 4.0 * (i - 7);   // kink at 7
  }
  const std::vector<std::vector<double>> fs{f1, f2};
  const auto sel = select_indices(xs, fs, {.max_points = 4, .tolerance_ps = 0});
  EXPECT_LT(interpolation_error(xs, f1, sel), 1e-12);
  EXPECT_LT(interpolation_error(xs, f2, sel), 1e-12);
}

TEST(DensifyAxis, AddsMidpoints) {
  const auto dense = densify_axis(std::vector<double>{1.0, 2.0, 4.0});
  const std::vector<double> expected{1.0, 1.5, 2.0, 3.0, 4.0};
  EXPECT_EQ(dense, expected);
}

}  // namespace
}  // namespace tmm
