#include <gtest/gtest.h>

#include "liberty/library_gen.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

TEST(Library, GeneratorProducesExpectedCells) {
  const Library& lib = test::shared_library();
  for (const char* name :
       {"INV_X1", "INV_X2", "INV_X4", "BUF_X1", "NAND2_X1", "NOR2_X2",
        "AND2_X1", "OR2_X4", "XOR2_X1", "AOI21_X1", "MUX2_X1", "CLKBUF_X1",
        "CLKBUF_X2", "CLKBUF_X4", "DFF_X1"})
    EXPECT_TRUE(lib.has_cell(name)) << name;
  EXPECT_GE(lib.num_cells(), 25u);
}

TEST(Library, DffHasChecksAndLaunchArc) {
  const Library& lib = test::shared_library();
  const Cell& dff = lib.cell(lib.cell_id("DFF_X1"));
  EXPECT_TRUE(dff.is_sequential);
  int setup = 0;
  int hold = 0;
  int clk2q = 0;
  for (const auto& arc : dff.arcs) {
    if (arc.kind == ArcKind::kSetup) ++setup;
    if (arc.kind == ArcKind::kHold) ++hold;
    if (arc.kind == ArcKind::kClockToQ) ++clk2q;
  }
  EXPECT_EQ(setup, 1);
  EXPECT_EQ(hold, 1);
  EXPECT_EQ(clk2q, 1);
  EXPECT_TRUE(dff.ports[dff.port_index("CK")].is_clock);
}

TEST(Library, StrongerDriveIsFaster) {
  const Library& lib = test::shared_library();
  const auto& x1 = lib.cell(lib.cell_id("INV_X1")).arcs[0];
  const auto& x4 = lib.cell(lib.cell_id("INV_X4")).arcs[0];
  // At a heavy load the X4 must beat the X1.
  EXPECT_LT(x4.delay(kLate, kRise).lookup(10, 30),
            x1.delay(kLate, kRise).lookup(10, 30));
}

TEST(Library, MultiInputGateArcsDiffer) {
  const Library& lib = test::shared_library();
  const Cell& nand = lib.cell(lib.cell_id("NAND2_X1"));
  ASSERT_EQ(nand.arcs.size(), 2u);
  EXPECT_NE(nand.arcs[0].delay(kLate, kRise).lookup(10, 5),
            nand.arcs[1].delay(kLate, kRise).lookup(10, 5));
}

TEST(Library, PortLookup) {
  const Library& lib = test::shared_library();
  const Cell& c = lib.cell(lib.cell_id("NAND2_X1"));
  EXPECT_NE(c.port_index("A"), kInvalidId);
  EXPECT_NE(c.port_index("B"), kInvalidId);
  EXPECT_NE(c.port_index("Y"), kInvalidId);
  EXPECT_EQ(c.port_index("Z"), kInvalidId);
  EXPECT_EQ(c.num_inputs(), 2u);
}

TEST(Library, DuplicateCellRejected) {
  Library lib("dup");
  Cell c;
  c.name = "X";
  lib.add_cell(c);
  EXPECT_THROW(lib.add_cell(c), std::invalid_argument);
  EXPECT_THROW(lib.cell_id("nope"), std::out_of_range);
}

TEST(Library, SenseTransitionHelpers) {
  EXPECT_EQ(output_transitions(ArcSense::kPositiveUnate, kRise), 0b01u);
  EXPECT_EQ(output_transitions(ArcSense::kPositiveUnate, kFall), 0b10u);
  EXPECT_EQ(output_transitions(ArcSense::kNegativeUnate, kRise), 0b10u);
  EXPECT_EQ(output_transitions(ArcSense::kNegativeUnate, kFall), 0b01u);
  EXPECT_EQ(output_transitions(ArcSense::kNonUnate, kRise), 0b11u);
  EXPECT_EQ(input_transitions(ArcSense::kNegativeUnate, kFall), 0b01u);
  EXPECT_EQ(input_transitions(ArcSense::kNonUnate, kFall), 0b11u);
}

TEST(Library, CheckGuardDependsOnSlews) {
  const Library& lib = test::shared_library();
  const Cell& dff = lib.cell(lib.cell_id("DFF_X1"));
  const ArcSpec* setup = nullptr;
  for (const auto& arc : dff.arcs)
    if (arc.kind == ArcKind::kSetup) setup = &arc;
  ASSERT_NE(setup, nullptr);
  const double fast = setup->delay(kLate, kRise).lookup(5, 5);
  const double slow = setup->delay(kLate, kRise).lookup(5, 50);
  EXPECT_GT(slow, fast);  // slower data needs more setup margin
}

}  // namespace
}  // namespace tmm
