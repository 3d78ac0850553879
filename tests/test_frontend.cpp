// Real-circuit frontend (docs/FRONTEND.md): BLIF/Verilog parsing,
// elaboration, import lint (F001-F004), deterministic tech mapping,
// the malformed-input corpus, and .dsn round-trip fidelity.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/design_lint.hpp"
#include "analysis/graph_lint.hpp"
#include "fault/fault.hpp"
#include "frontend/blif_parser.hpp"
#include "frontend/elaborate.hpp"
#include "frontend/frontend.hpp"
#include "frontend/frontend_lint.hpp"
#include "frontend/tech_map.hpp"
#include "frontend/verilog_parser.hpp"
#include "netlist/netlist_io.hpp"
#include "sta/timing_graph.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

#ifndef TMM_TEST_CORPUS_DIR
#define TMM_TEST_CORPUS_DIR "tests/corpus"
#endif

namespace tmm {
namespace {

namespace fs = std::filesystem;
using frontend::FlatKind;
using frontend::FlatNetlist;
using frontend::FrontendConfig;
using frontend::IrNetlist;

/// Fresh mutable library per process run; NK cells accumulate across
/// tests like they do in the frontend registry.
Library& test_lib() {
  static Library lib = generate_library();
  return lib;
}

IrNetlist blif(const std::string& text) {
  std::istringstream is(text);
  return frontend::parse_blif(is, "<test.blif>");
}

IrNetlist verilog(const std::string& text) {
  std::istringstream is(text);
  return frontend::parse_verilog(is, "<test.v>");
}

/// Full in-memory import: parse -> elaborate -> lint -> map against a
/// fresh library generated with the default seed.
Design import_blif(const std::string& text, Library& lib,
                   const FrontendConfig& cfg = {}) {
  const IrNetlist ir = blif(text);
  analysis::LintReport report;
  const FlatNetlist flat = frontend::elaborate(ir, lib, cfg.top, &report);
  report.merge(frontend::lint_flat(flat, lib));
  EXPECT_EQ(report.errors(), 0u) << report.to_string();
  return frontend::map_netlist(flat, lib, cfg);
}

const char* kMajority = R"(.model majority
.inputs a b c
.outputs y
.names a b ab
11 1
.names a c ac
11 1
.names b c bc
11 1
.names ab ac bc y
1-- 1
-1- 1
--1 1
.end
)";

// --- BLIF parsing ---------------------------------------------------

TEST(BlifParser, ParsesModelPortsNamesLatchSubckt) {
  const IrNetlist ir = blif(
      ".model m\n"
      ".inputs a b\n"
      ".outputs y\n"
      ".names a b t\n"
      "11 1\n"
      ".latch t q re clk 2\n"
      ".subckt sub p=q o=y\n"
      ".end\n"
      ".model sub\n.inputs p\n.outputs o\n.names p o\n1 1\n.end\n");
  ASSERT_EQ(ir.models.size(), 2u);
  const auto& m = ir.models[0];
  EXPECT_EQ(m.name, "m");
  EXPECT_EQ(m.inputs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(m.outputs, (std::vector<std::string>{"y"}));
  ASSERT_EQ(m.names.size(), 1u);
  EXPECT_EQ(m.names[0].inputs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(m.names[0].output, "t");
  ASSERT_EQ(m.names[0].cover.rows.size(), 1u);
  EXPECT_EQ(m.names[0].cover.rows[0], "11");
  EXPECT_EQ(m.names[0].cover.output_value, '1');
  ASSERT_EQ(m.latches.size(), 1u);
  EXPECT_EQ(m.latches[0].input, "t");
  EXPECT_EQ(m.latches[0].output, "q");
  EXPECT_EQ(m.latches[0].control, "clk");
  EXPECT_EQ(m.latches[0].init, 2);
  ASSERT_EQ(m.instances.size(), 1u);
  EXPECT_EQ(m.instances[0].model, "sub");
  ASSERT_EQ(m.instances[0].conns.size(), 2u);
  EXPECT_EQ(m.instances[0].conns[0].first, "p");
  EXPECT_EQ(m.instances[0].conns[0].second, "q");
}

TEST(BlifParser, JoinsContinuationLinesAndStripsComments) {
  const IrNetlist ir = blif(
      "# leading comment\n"
      ".model m\n"
      ".inputs a \\\n   b # trailing comment\n"
      ".outputs y\n"
      ".names a \\\nb y\n11 1\n.end\n");
  EXPECT_EQ(ir.models[0].inputs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ir.models[0].names[0].inputs,
            (std::vector<std::string>{"a", "b"}));
}

TEST(BlifParser, OffSetCoverAndConstants) {
  const IrNetlist ir = blif(
      ".model m\n.inputs a b\n.outputs y one\n"
      ".names a b y\n00 0\n"  // off-set cover
      ".names one\n1\n"       // constant 1
      ".end\n");
  EXPECT_EQ(ir.models[0].names[0].cover.output_value, '0');
  EXPECT_TRUE(ir.models[0].names[1].inputs.empty());
  EXPECT_EQ(ir.models[0].names[1].cover.output_value, '1');
}

TEST(BlifParser, ErrorsCarrySourceAndLine) {
  try {
    blif(".model m\n.inputs a\n.outputs y\n.names a y\n3 1\n.end\n");
    FAIL() << "expected kParse";
  } catch (const fault::FlowError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kParse);
    EXPECT_NE(std::string(e.what()).find("<test.blif>:5"), std::string::npos)
        << e.what();
  }
}

TEST(BlifParser, RejectsDirectiveOutsideModel) {
  EXPECT_THROW(blif(".inputs a\n"), fault::FlowError);
  EXPECT_THROW(blif("11 1\n"), fault::FlowError);
  EXPECT_THROW(blif("# only comments\n"), fault::FlowError);
}

// --- Verilog parsing ------------------------------------------------

TEST(VerilogParser, AnsiHeaderNamedConnections) {
  const IrNetlist ir = verilog(
      "// comment\n"
      "module m(input a, input b, output y);\n"
      "  wire t; /* block\n comment */\n"
      "  NAND2_X1 g0 (.A(a), .B(b), .Y(t));\n"
      "  INV_X1 g1 (.A(t), .Y(y));\n"
      "endmodule\n");
  const auto& m = ir.models[0];
  EXPECT_EQ(m.inputs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(m.outputs, (std::vector<std::string>{"y"}));
  EXPECT_EQ(m.port_order, (std::vector<std::string>{"a", "b", "y"}));
  ASSERT_EQ(m.instances.size(), 2u);
  EXPECT_EQ(m.instances[0].name, "g0");
  EXPECT_EQ(m.instances[0].conns[0].first, "A");
  EXPECT_EQ(m.instances[0].conns[0].second, "a");
}

TEST(VerilogParser, NonAnsiHeaderPositionalConnections) {
  const IrNetlist ir = verilog(
      "module m(a, y);\n"
      "  input a;\n  output y;\n"
      "  INV_X1 g0 (a, y);\n"  // positional: A then Y
      "endmodule\n");
  const auto& m = ir.models[0];
  EXPECT_EQ(m.inputs, (std::vector<std::string>{"a"}));
  ASSERT_EQ(m.instances[0].conns.size(), 2u);
  EXPECT_TRUE(m.instances[0].conns[0].first.empty());
  EXPECT_EQ(m.instances[0].conns[0].second, "a");
}

TEST(VerilogParser, RejectsUndeclaredSignalsAndVectors) {
  EXPECT_THROW(verilog("module m(input a, output y);\n"
                       "  INV_X1 g0 (.A(ghost), .Y(y));\nendmodule\n"),
               fault::FlowError);
  EXPECT_THROW(verilog("module m(input [3:0] a, output y);\nendmodule\n"),
               fault::FlowError);
  EXPECT_THROW(verilog("module m(input a, output y);\n"
                       "  assign y = a;\nendmodule\n"),
               fault::FlowError);
}

// --- elaboration ----------------------------------------------------

TEST(Elaborate, FlattensHierarchyWithPrefixedNets) {
  const IrNetlist ir = blif(
      ".model top\n.inputs a b\n.outputs y\n"
      ".subckt leaf p=a o=t\n"
      ".subckt leaf p=t o=y\n"
      ".end\n"
      ".model leaf\n.inputs p\n.outputs o\n"
      ".names p mid\n1 1\n.names mid o\n1 1\n.end\n");
  const FlatNetlist flat = frontend::elaborate(ir, test_lib());
  EXPECT_EQ(flat.name, "top");
  ASSERT_EQ(flat.prims.size(), 4u);
  // Internal leaf nets get the instance prefix; bound ports do not.
  EXPECT_EQ(flat.prims[0].name, "s0/nm0");
  EXPECT_EQ(flat.prims[0].inputs[0], "a");
  EXPECT_EQ(flat.prims[0].output, "s0/mid");
  EXPECT_EQ(flat.prims[1].output, "t");
  EXPECT_EQ(flat.prims[2].inputs[0], "t");
  EXPECT_EQ(flat.prims[3].output, "y");
}

TEST(Elaborate, DetectsRecursionAndUnknownModels) {
  const IrNetlist rec = blif(
      ".model a\n.inputs x\n.outputs y\n.subckt b x=x y=y\n.end\n"
      ".model b\n.inputs x\n.outputs y\n.subckt a x=x y=y\n.end\n");
  EXPECT_THROW(frontend::elaborate(rec, test_lib()), fault::FlowError);
  const IrNetlist unknown =
      blif(".model t\n.inputs a\n.outputs y\n.subckt nope p=a q=y\n.end\n");
  EXPECT_THROW(frontend::elaborate(unknown, test_lib()), fault::FlowError);
}

TEST(Elaborate, DanglingInstancePinIsF003) {
  const IrNetlist ir = blif(
      ".model t\n.inputs a b\n.outputs y\n"
      ".subckt sub p=a nosuchpin=b q=y\n.end\n"
      ".model sub\n.inputs p\n.outputs q\n.names p q\n1 1\n.end\n");
  analysis::LintReport report;
  frontend::elaborate(ir, test_lib(), "", &report);
  EXPECT_EQ(report.count(analysis::rule::kIrDanglingPin), 1u)
      << report.to_string();
}

// --- flat lint ------------------------------------------------------

TEST(FrontendLint, UndrivenMultiDrivenUnusedUnconnected) {
  Library& lib = test_lib();
  const auto lint = [&lib](const std::string& text) {
    const IrNetlist ir = blif(text);
    return frontend::lint_flat(frontend::elaborate(ir, lib), lib);
  };
  const auto undriven = lint(
      ".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n");
  EXPECT_EQ(undriven.count(analysis::rule::kIrUndrivenNet), 1u);
  const auto multi = lint(
      ".model t\n.inputs a b\n.outputs y\n"
      ".names a y\n1 1\n.names b y\n1 1\n.end\n");
  EXPECT_EQ(multi.count(analysis::rule::kIrMultiDriven), 1u);
  const auto unused = lint(
      ".model t\n.inputs a\n.outputs y\n"
      ".names a y\n1 1\n.names a dead\n1 1\n.end\n");
  EXPECT_EQ(unused.count(analysis::rule::kIrUnusedNet), 1u);
  EXPECT_EQ(unused.errors(), 0u);  // F004 is a warning
  const auto dangling = lint(
      ".model t\n.inputs a\n.outputs y\n"
      ".subckt NAND2_X1 A=a Y=y\n.end\n");  // B unconnected
  EXPECT_EQ(dangling.count(analysis::rule::kIrDanglingPin), 1u);
}

// --- tech mapping ---------------------------------------------------

TEST(TechMap, SensesFollowCoverUnateness) {
  Library& lib = test_lib();
  const Design and2 = import_blif(
      ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n", lib);
  const Cell& cand = lib.cell(and2.gate(0).cell);
  ASSERT_EQ(cand.ports.size(), 3u);  // I0, I1, Y
  ASSERT_EQ(cand.arcs.size(), 2u);
  EXPECT_EQ(cand.arcs[0].sense, ArcSense::kPositiveUnate);
  EXPECT_EQ(cand.arcs[1].sense, ArcSense::kPositiveUnate);

  const Design inv = import_blif(
      ".model t\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n", lib);
  const Cell& cinv = lib.cell(inv.gate(0).cell);
  EXPECT_EQ(cinv.arcs[0].sense, ArcSense::kNegativeUnate);

  const Design xo = import_blif(
      ".model t\n.inputs a b\n.outputs y\n.names a b y\n01 1\n10 1\n.end\n",
      lib);
  const Cell& cxor = lib.cell(xo.gate(0).cell);
  EXPECT_EQ(cxor.arcs[0].sense, ArcSense::kNonUnate);
  EXPECT_EQ(cxor.arcs[1].sense, ArcSense::kNonUnate);
}

TEST(TechMap, EquivalentCoversShareOneCell) {
  Library& lib = test_lib();
  // Same cover, different row order and a duplicated row.
  const Design d = import_blif(
      ".model t\n.inputs a b\n.outputs y\n"
      ".names a b y\n01 1\n10 1\n.end\n", lib);
  const Design d2 = import_blif(
      ".model t\n.inputs a b\n.outputs y\n"
      ".names a b y\n10 1\n01 1\n10 1\n.end\n", lib);
  EXPECT_EQ(lib.cell(d.gate(0).cell).name, lib.cell(d2.gate(0).cell).name);
}

TEST(TechMap, NamesCellNameRoundTripsAndResynthesizes) {
  Library& lib = test_lib();
  const Design d = import_blif(
      ".model t\n.inputs a b c\n.outputs y\n"
      ".names a b c y\n1-0 1\n01- 1\n.end\n", lib);
  const Cell& cell = lib.cell(d.gate(0).cell);
  NamesCellSpec spec;
  ASSERT_TRUE(parse_names_cell_name(cell.name, &spec));
  EXPECT_EQ(spec.num_inputs, 3u);
  LibraryGenConfig gen;
  const Cell again = synthesize_names_cell(spec, gen);
  // Byte-identical re-synthesis from the name alone: same ports/arcs
  // and identical first delay table.
  ASSERT_EQ(again.ports.size(), cell.ports.size());
  ASSERT_EQ(again.arcs.size(), cell.arcs.size());
  for (std::size_t i = 0; i < cell.arcs.size(); ++i) {
    EXPECT_EQ(again.arcs[i].sense, cell.arcs[i].sense);
    const auto va = again.arcs[i].delay(kLate, kRise).values();
    const auto vb = cell.arcs[i].delay(kLate, kRise).values();
    EXPECT_EQ(std::vector<double>(va.begin(), va.end()),
              std::vector<double>(vb.begin(), vb.end()));
  }
}

TEST(TechMap, LatchMapsToDffAndLintsClean) {
  Library& lib = test_lib();
  const Design d = import_blif(
      ".model seq\n.inputs clk d\n.outputs q\n"
      ".names d q0 x\n10 1\n01 1\n"
      ".latch x q0 re clk 0\n"
      ".names q0 q\n1 1\n.end\n", lib);
  // One DFF gate, clock port marked, setup/hold arcs in the graph.
  std::size_t ffs = 0;
  for (GateId g = 0; g < d.num_gates(); ++g)
    if (lib.cell(d.gate(g).cell).is_sequential) ++ffs;
  EXPECT_EQ(ffs, 1u);
  ASSERT_NE(d.clock_root(), kInvalidId);
  EXPECT_TRUE(d.port(d.pin(d.clock_root()).port).is_clock);
  const analysis::LintReport dl = analysis::lint_design(d);
  EXPECT_EQ(dl.errors(), 0u) << dl.to_string();
  const TimingGraph g = build_timing_graph(d);
  const analysis::LintReport gl = analysis::lint_graph(g);
  EXPECT_EQ(gl.errors(), 0u) << gl.to_string();
  EXPECT_GT(g.num_checks(), 0u);  // setup/hold arcs reached the graph
}

TEST(TechMap, UnclockedLatchesSynthesizeClockInput) {
  Library& lib = test_lib();
  frontend::ImportStats st;
  const IrNetlist ir = blif(
      ".model seq\n.inputs d\n.outputs q\n.latch d q 0\n.end\n");
  const FlatNetlist flat = frontend::elaborate(ir, lib);
  const Design d = frontend::map_netlist(flat, lib, {}, &st);
  EXPECT_EQ(st.clock, "clk");
  ASSERT_NE(d.clock_root(), kInvalidId);
}

TEST(TechMap, AmbiguousClockRequiresOverride) {
  Library& lib = test_lib();
  const IrNetlist ir = blif(
      ".model seq\n.inputs c1 c2 d\n.outputs q r\n"
      ".latch d q re c1 0\n.latch d r re c2 0\n.end\n");
  const FlatNetlist flat = frontend::elaborate(ir, lib);
  EXPECT_THROW(frontend::map_netlist(flat, lib, {}), fault::FlowError);
}

TEST(TechMap, ImportTwiceIsByteIdentical) {
  // Two independent libraries, two imports: serialized designs match
  // byte for byte (the acceptance bar for `tmm import` determinism).
  Library lib1 = generate_library();
  Library lib2 = generate_library();
  const Design d1 = import_blif(kMajority, lib1);
  const Design d2 = import_blif(kMajority, lib2);
  std::ostringstream o1, o2;
  write_design(d1, o1);
  write_design(d2, o2);
  EXPECT_EQ(o1.str(), o2.str());
}

// --- .dsn round-trip fidelity ---------------------------------------

std::string serialized(const Design& d) {
  std::ostringstream os;
  write_design(d, os);
  return os.str();
}

TEST(FrontendRoundTrip, ImportedDesignSurvivesWriteRead) {
  Library& lib = test_lib();
  const Design d = import_blif(kMajority, lib);
  const std::string once = serialized(d);
  std::istringstream is(once);
  const Design back = read_design(is, lib, "<roundtrip>");
  EXPECT_EQ(serialized(back), once);
  EXPECT_EQ(back.name(), d.name());
  EXPECT_EQ(back.num_pins(), d.num_pins());
}

/// Seeded random BLIF generator: layered combinational netlists with
/// random covers — broad structural coverage for the round-trip bar.
std::string random_blif(Rng& rng) {
  std::ostringstream os;
  const std::size_t num_in = 2 + rng.below(4);
  os << ".model rnd\n.inputs";
  std::vector<std::string> nets;
  for (std::size_t i = 0; i < num_in; ++i) {
    os << " i" << i;
    nets.push_back("i" + std::to_string(i));
  }
  os << "\n.outputs y\n";
  const std::size_t num_nodes = 1 + rng.below(8);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    const std::size_t k = 1 + rng.below(3);
    std::vector<std::string> ins;
    for (std::size_t j = 0; j < k; ++j)
      ins.push_back(nets[rng.below(nets.size())]);
    const std::string out =
        n + 1 == num_nodes ? "y" : "n" + std::to_string(n);
    os << ".names";
    for (const auto& in : ins) os << " " << in;
    os << " " << out << "\n";
    const std::size_t rows = 1 + rng.below(3);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < k; ++j)
        os << "01-"[rng.below(3)];
      os << " 1\n";
    }
    nets.push_back(out);
  }
  os << ".end\n";
  return os.str();
}

TEST(FrontendRoundTrip, RandomizedImportsRoundTrip) {
  Library& lib = test_lib();
  Rng rng(0xF00D);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string text = random_blif(rng);
    const IrNetlist ir = blif(text);
    const FlatNetlist flat = frontend::elaborate(ir, lib);
    const analysis::LintReport report = frontend::lint_flat(flat, lib);
    if (report.errors() > 0) continue;  // e.g. y multiply-driven draw
    const Design d = frontend::map_netlist(flat, lib, {});
    const std::string once = serialized(d);
    std::istringstream is(once);
    const Design back = read_design(is, lib, "<roundtrip>");
    EXPECT_EQ(serialized(back), once) << text;
  }
}

// --- corpus + fault injection ---------------------------------------

TEST(FrontendCorpus, EveryMalformedFileRaisesStructuredParseError) {
  const fs::path corpus(TMM_TEST_CORPUS_DIR);
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("fe_", 0) != 0) continue;
    ++checked;
    try {
      (void)frontend::import_file(entry.path().string());
      FAIL() << name << ": expected fault::FlowError";
    } catch (const fault::FlowError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kParse) << name;
      // Every diagnostic names its source; parse-stage ones its line.
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << name << ": " << e.what();
    }
  }
  EXPECT_GE(checked, 12u);
}

TEST(FrontendFault, ParseAndMapSitesInject) {
  struct Disarm {
    ~Disarm() { fault::disarm(); }
  } disarm;
  ASSERT_TRUE(fault::arm("frontend.parse", 1).ok());
  EXPECT_THROW(blif(kMajority), fault::FlowError);
  fault::disarm();
  ASSERT_TRUE(fault::arm("frontend.map", 1).ok());
  Library lib = generate_library();
  const IrNetlist ir = blif(kMajority);
  const FlatNetlist flat = frontend::elaborate(ir, lib);
  EXPECT_THROW(frontend::map_netlist(flat, lib, {}), fault::FlowError);
}

// --- registry + load_design_any -------------------------------------

TEST(FrontendRegistry, SeedAndNameResolveToSameLibrary) {
  Library& a = frontend::library_for_seed(7);
  Library& b = frontend::library_for_seed(7);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "tmm_nldm45_s7");
  EXPECT_EQ(frontend::library_for_name("tmm_nldm45_s7"), &a);
  EXPECT_EQ(frontend::library_for_name("not_a_generated_lib"), nullptr);
}

TEST(FrontendRegistry, ImportedDsnReloadsViaRegistry) {
  // Write a BLIF to disk, import via the public API, write the .dsn,
  // then reload it with no preferred library: NK cells resolve through
  // the registry.
  const test::TempDir dir;
  const std::string blif_path = dir.str("maj.blif");
  const std::string dsn_path = dir.str("maj.dsn");
  {
    std::ofstream os(blif_path);
    os << kMajority;
  }
  const Design d = frontend::import_file(blif_path);
  write_design_file(d, dsn_path);
  const Design back = frontend::load_design_any(dsn_path);
  EXPECT_EQ(serialized(back), serialized(d));
}

}  // namespace
}  // namespace tmm
