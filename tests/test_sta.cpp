#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "obs/metrics.hpp"
#include "sta/propagation.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

/// Hand-built CPPR scenario:
///   clk -> ckroot(BUF) -> {bufA -> ff1.CK, bufB -> ff2.CK}
///   in0 -> ff1.D ;  ff1.Q -> INV -> ff2.D ;  ff2.Q -> out0
Design make_cppr_design() {
  const Library& lib = test::shared_library();
  Design d("cppr", &lib);
  const CellId buf = lib.cell_id("CLKBUF_X2");
  const CellId inv = lib.cell_id("INV_X1");
  const CellId dff = lib.cell_id("DFF_X1");
  const auto& bufc = lib.cell(buf);
  const auto& invc = lib.cell(inv);
  const auto& dffc = lib.cell(dff);
  const auto ba = bufc.port_index("A");
  const auto by = bufc.port_index("Y");

  d.add_port("clk", TopPortDir::kPrimaryInput, true);
  d.add_port("in0", TopPortDir::kPrimaryInput);
  d.add_port("out0", TopPortDir::kPrimaryOutput);
  const PinId clk = d.port(0).pin;
  const PinId in0 = d.port(1).pin;
  const PinId out0 = d.port(2).pin;

  const GateId root = d.add_gate("ckroot", buf);
  const GateId ba1 = d.add_gate("bufA", buf);
  const GateId bb1 = d.add_gate("bufB", buf);
  const GateId ff1 = d.add_gate("ff1", dff);
  const GateId ff2 = d.add_gate("ff2", dff);
  const GateId g1 = d.add_gate("g1", inv);

  const NetId nclk = d.add_net("nclk", clk);
  d.connect_sink(nclk, d.gate(root).pins[ba], 0.1);
  const NetId nroot = d.add_net("nroot", d.gate(root).pins[by]);
  d.connect_sink(nroot, d.gate(ba1).pins[ba], 0.1);
  d.connect_sink(nroot, d.gate(bb1).pins[ba], 0.3);
  const NetId na = d.add_net("na", d.gate(ba1).pins[by]);
  d.connect_sink(na, d.gate(ff1).pins[dffc.port_index("CK")], 0.1);
  const NetId nb = d.add_net("nb", d.gate(bb1).pins[by]);
  d.connect_sink(nb, d.gate(ff2).pins[dffc.port_index("CK")], 0.1);

  const NetId nin = d.add_net("nin", in0);
  d.connect_sink(nin, d.gate(ff1).pins[dffc.port_index("D")], 0.1);
  const NetId nq1 = d.add_net("nq1", d.gate(ff1).pins[dffc.port_index("Q")]);
  d.connect_sink(nq1, d.gate(g1).pins[invc.port_index("A")], 0.1);
  const NetId ninv = d.add_net("ninv", d.gate(g1).pins[invc.port_index("Y")]);
  d.connect_sink(ninv, d.gate(ff2).pins[dffc.port_index("D")], 0.1);
  const NetId nq2 = d.add_net("nq2", d.gate(ff2).pins[dffc.port_index("Q")]);
  d.connect_sink(nq2, out0, 0.1);
  for (NetId n = 0; n < d.num_nets(); ++n) d.set_wire_cap(n, 0.5);
  d.validate();
  return d;
}

PinId ff_pin(const Design& d, const std::string& gate, const char* port) {
  for (GateId g = 0; g < d.num_gates(); ++g) {
    if (d.gate(g).name != gate) continue;
    const Cell& c = d.library().cell(d.gate(g).cell);
    return d.gate(g).pins[c.port_index(port)];
  }
  return kInvalidId;
}

TEST(Sta, BufferChainArrivalMatchesManualWalk) {
  const Design d = test::make_buffer_chain(4);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  const BoundaryConstraints bc =
      nominal_constraints(d.primary_inputs().size(),
                          d.primary_outputs().size());
  sta.run(bc);

  // Manual forward walk over the unique path.
  double at = bc.pi[0].at(kLate, kRise);
  double slew = bc.pi[0].slew(kLate, kRise);
  NodeId u = d.primary_inputs()[0];
  const NodeId out = d.primary_outputs()[0];
  while (u != out) {
    ASSERT_EQ(g.fanout(u).size(), 1u);
    const GraphArc& a = g.arc(g.fanout(u)[0]);
    if (a.kind == GraphArcKind::kWire) {
      at += a.wire_delay_ps;
      slew = wire_slew(slew, a.wire_delay_ps);
    } else {
      double load = g.node(a.to).static_load_ff;
      for (auto po : g.node(a.to).attached_po_loads)
        load += bc.po[po].load_ff;
      at += (*a.delay)(kLate, kRise).lookup(slew, load);
      slew = (*a.out_slew)(kLate, kRise).lookup(slew, load);
    }
    u = a.to;
  }
  EXPECT_NEAR(sta.timing(out).at(kLate, kRise), at, 1e-9);
  EXPECT_NEAR(sta.timing(out).slew(kLate, kRise), slew, 1e-9);
}

TEST(Sta, PoSlackIsRatMinusAt) {
  const Design d = test::make_buffer_chain(2);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  const BoundaryConstraints bc = nominal_constraints(1, 1);
  sta.run(bc);
  const NodeId out = d.primary_outputs()[0];
  const auto& t = sta.timing(out);
  EXPECT_DOUBLE_EQ(t.rat(kLate, kRise), bc.po[0].rat(kLate, kRise));
  EXPECT_NEAR(sta.slack(out, kLate, kRise),
              t.rat(kLate, kRise) - t.at(kLate, kRise), 1e-12);
  EXPECT_NEAR(sta.slack(out, kEarly, kFall),
              t.at(kEarly, kFall) - t.rat(kEarly, kFall), 1e-12);
}

TEST(Sta, PiRatBackPropagatesFromPoConstraint) {
  const Design d = test::make_buffer_chain(2);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  const BoundaryConstraints bc = nominal_constraints(1, 1);
  sta.run(bc);
  const NodeId in = d.primary_inputs()[0];
  const NodeId out = d.primary_outputs()[0];
  // Slack is conserved along a single path: slack(in) == slack(out).
  EXPECT_NEAR(sta.slack(in, kLate, kRise), sta.slack(out, kLate, kRise), 1e-9);
}

TEST(Sta, EarlyNeverExceedsLate) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  Rng rng(3);
  const BoundaryConstraints bc =
      random_constraints(d.primary_inputs().size(),
                         d.primary_outputs().size(), {}, rng);
  sta.run(bc);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      const auto& t = sta.timing(n);
      if (std::isfinite(t.at(kEarly, rf)) &&
          std::isfinite(t.at(kLate, rf))) {
        EXPECT_LE(t.at(kEarly, rf), t.at(kLate, rf) + 1e-9) << g.node(n).name;
      }
      if (std::isfinite(t.slew(kEarly, rf)) &&
          std::isfinite(t.slew(kLate, rf))) {
        EXPECT_LE(t.slew(kEarly, rf), t.slew(kLate, rf) + 1e-9);
      }
    }
  }
}

TEST(Sta, ClockNetworkMarkedAndRatFree) {
  const Design d = test::make_tiny_design();
  const TimingGraph g = build_timing_graph(d);
  EXPECT_TRUE(g.node(g.clock_root()).in_clock_network);
  Sta sta(g);
  sta.run(nominal_constraints(d.primary_inputs().size(),
                              d.primary_outputs().size()));
  // Boundary-RAT convention: the clock port carries no required time.
  EXPECT_FALSE(std::isfinite(sta.timing(g.clock_root()).rat(kLate, kRise)));
}

TEST(Sta, SetupCheckConstrainsDataPin) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  const BoundaryConstraints bc = nominal_constraints(2, 1, 800.0);
  sta.run(bc);
  const PinId d1 = ff_pin(d, "ff1", "D");
  const auto& t = sta.timing(d1);
  ASSERT_TRUE(std::isfinite(t.rat(kLate, kRise)));
  // rat_late(D) = T + at_early(CK) - setup + credit; must be < T + at(CK).
  const PinId ck1 = ff_pin(d, "ff1", "CK");
  EXPECT_LT(t.rat(kLate, kRise),
            bc.clock_period_ps + sta.timing(ck1).at(kEarly, kRise));
  // Hold: rat_early(D) > at_late(CK) (guard positive, credit small).
  ASSERT_TRUE(std::isfinite(t.rat(kEarly, kRise)));
}

TEST(Sta, CpprCreditEqualsCommonPathPessimism) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g, {.cppr = true});
  const BoundaryConstraints bc = nominal_constraints(2, 1, 800.0);
  sta.run(bc);

  const PinId d2 = ff_pin(d, "ff2", "D");
  // Launch ff1 and capture ff2 share the path clk -> ckroot/Y.
  PinId branch = kInvalidId;
  for (GateId gi = 0; gi < d.num_gates(); ++gi)
    if (d.gate(gi).name == "ckroot")
      branch = d.gate(gi).pins[d.library()
                                   .cell(d.gate(gi).cell)
                                   .port_index("Y")];
  ASSERT_NE(branch, kInvalidId);
  const double expected = sta.timing(branch).at(kLate, kRise) -
                          sta.timing(branch).at(kEarly, kRise);
  EXPECT_GT(expected, 0.0);
  EXPECT_NEAR(sta.endpoint_credit(d2, kLate, kRise), expected, 1e-9);
  EXPECT_NEAR(sta.endpoint_credit(d2, kLate, kFall), expected, 1e-9);
}

TEST(Sta, CpprImprovesSetupSlack) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  const BoundaryConstraints bc = nominal_constraints(2, 1, 800.0);
  Sta with(g, {.cppr = true});
  with.run(bc);
  Sta without(g, {.cppr = false});
  without.run(bc);
  const PinId d2 = ff_pin(d, "ff2", "D");
  EXPECT_GT(with.slack(d2, kLate, kRise), without.slack(d2, kLate, kRise));
  // PI-launched endpoint has no common path: identical slack.
  const PinId d1 = ff_pin(d, "ff1", "D");
  EXPECT_NEAR(with.slack(d1, kLate, kRise), without.slack(d1, kLate, kRise),
              1e-9);
  EXPECT_DOUBLE_EQ(without.endpoint_credit(d2, kLate, kRise), 0.0);
}

TEST(Sta, SnapshotDiffOfIdenticalRunsIsZero) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  Sta a(g);
  Sta b(g);
  const BoundaryConstraints bc = nominal_constraints(
      d.primary_inputs().size(), d.primary_outputs().size());
  a.run(bc);
  b.run(bc);
  const SnapshotDiff diff =
      diff_snapshots(a.boundary_snapshot(), b.boundary_snapshot());
  EXPECT_DOUBLE_EQ(diff.max_abs, 0.0);
  EXPECT_EQ(diff.mismatched, 0u);
  EXPECT_GT(diff.compared, 0u);
}

TEST(Sta, WorstSlackIsMinOverEndpoints) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  sta.run(nominal_constraints(2, 1, 800.0));
  double manual = kInf;
  for (const auto& c : g.checks())
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      manual = std::min(manual, sta.slack(c.data, kLate, rf));
  for (NodeId po : g.primary_outputs())
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      manual = std::min(manual, sta.slack(po, kLate, rf));
  EXPECT_DOUBLE_EQ(sta.worst_slack(kLate), manual);
}

TEST(Sta, SlewOnlyPropagationIsMonotone) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  const auto lo = propagate_slew_only(g, 2.0);
  const auto hi = propagate_slew_only(g, 50.0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!std::isfinite(lo[n]) || !std::isfinite(hi[n])) continue;
    EXPECT_LE(lo[n], hi[n] + 1e-9) << g.node(n).name;
  }
}

TEST(Sta, WorstPathTracesBackToStartPoint) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  sta.run(nominal_constraints(2, 1, 800.0));

  unsigned rf = kRise;
  const NodeId endpoint = sta.worst_endpoint(kLate, &rf);
  ASSERT_NE(endpoint, kInvalidId);
  const auto path = sta.worst_path(endpoint, kLate, rf);
  ASSERT_GE(path.size(), 2u);
  // Path starts at a seed (no incoming arc) and ends at the endpoint.
  EXPECT_EQ(path.front().via, kInvalidId);
  EXPECT_EQ(path.back().node, endpoint);
  EXPECT_EQ(path.back().rf, rf);
  // Arrival times are consistent hop by hop and non-decreasing (late).
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_NE(path[i].via, kInvalidId);
    EXPECT_EQ(g.arc(path[i].via).to, path[i].node);
    EXPECT_EQ(g.arc(path[i].via).from, path[i - 1].node);
    EXPECT_GE(path[i].at, path[i - 1].at - 1e-9);
    EXPECT_DOUBLE_EQ(path[i].at, sta.timing(path[i].node).at(kLate, path[i].rf));
  }
}

TEST(Sta, WorstPathOfUnreachedNodeIsEmpty) {
  const Design d = test::make_buffer_chain(2);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  BoundaryConstraints bc = nominal_constraints(1, 1);
  bc.pi[0].at(kLate, kRise) = -kInf;  // deactivate the rise track
  bc.pi[0].slew(kLate, kRise) = -kInf;
  sta.run(bc);
  // The chain is positive-unate: no rise seed => no rise path anywhere.
  EXPECT_TRUE(sta.worst_path(d.primary_outputs()[0], kLate, kRise).empty());
  EXPECT_FALSE(sta.worst_path(d.primary_outputs()[0], kLate, kFall).empty());
}

/// Every live clock-network node that is not a PO keeps the
/// unconstrained rat lanes: late +inf, early -inf.
void expect_clock_network_unconstrained(const Sta& sta, const TimingGraph& g) {
  std::size_t checked = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const GraphNode& node = g.node(n);
    if (node.dead || !node.in_clock_network ||
        node.role == NodeRole::kPrimaryOutput)
      continue;
    const PinTiming t = sta.timing(n);
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      EXPECT_EQ(t.rat(kLate, rf), kInf) << node.name << " rf=" << rf;
      EXPECT_EQ(t.rat(kEarly, rf), -kInf) << node.name << " rf=" << rf;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

/// Late and early rat lanes of every data-side PI, bit for bit.
void expect_data_pi_rats_equal(const Sta& got, const Sta& want,
                               const TimingGraph& g) {
  std::size_t finite = 0;
  for (NodeId p : g.primary_inputs()) {
    if (p == kInvalidId || g.node(p).in_clock_network) continue;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        const double a = got.timing(p).rat(el, rf);
        const double b = want.timing(p).rat(el, rf);
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
            << g.node(p).name << " el=" << el << " rf=" << rf;
        if (std::isfinite(b)) ++finite;
      }
  }
  EXPECT_GT(finite, 0u);  // the data side is actually constrained
}

TEST(Sta, ClockNetworkCarriesNoRequiredTimes) {
  const Design d = make_cppr_design();
  TimingGraph g = build_timing_graph(d);
  const BoundaryConstraints bc = nominal_constraints(2, 1, 800.0);
  Sta sta(g);
  sta.run(bc);
  expect_clock_network_unconstrained(sta, g);
  sta.set_reference();

  // Every pin a MergeDelta removes, clock-network pins included: the
  // incremental pass keeps the convention and matches a full run.
  const MergeConfig mcfg;
  MergeDelta delta(g);
  std::size_t removed = 0;
  for (NodeId pin = 0; pin < g.num_nodes(); ++pin) {
    if (!mergeable(g, pin, mcfg) || !delta.apply(pin, mcfg)) continue;
    SCOPED_TRACE(testing::Message() << "removed " << g.node(pin).name);
    ++removed;
    sta.run_incremental(bc, delta.touched());
    expect_clock_network_unconstrained(sta, g);
    Sta fresh(g);
    fresh.run(bc);
    expect_data_pi_rats_equal(sta, fresh, g);
    delta.undo();
  }
  EXPECT_GT(removed, 0u);
}

TEST(Sta, ReusedEngineMatchesFreshEngine) {
  const Design d = test::make_small_design("reuse", 44);
  const TimingGraph g = build_timing_graph(d);
  Rng rng(4);
  const BoundaryConstraints bc1 = random_constraints(
      d.primary_inputs().size(), d.primary_outputs().size(), {}, rng);
  const BoundaryConstraints bc2 = random_constraints(
      d.primary_inputs().size(), d.primary_outputs().size(), {}, rng);
  Sta reused(g);
  reused.run(bc1);
  reused.run(bc2);  // second run must not leak state from the first
  Sta fresh(g);
  fresh.run(bc2);
  const SnapshotDiff diff =
      diff_snapshots(reused.boundary_snapshot(), fresh.boundary_snapshot());
  EXPECT_DOUBLE_EQ(diff.max_abs, 0.0);
  EXPECT_EQ(diff.mismatched, 0u);
}

TEST(Sta, NumericCheckSkipsPortOrdinalGaps) {
  // PI ordinal 1 with no ordinal 0: the PI list has a kInvalidId hole
  // that the boundary NaN scan must step over.
  TimingGraph g;
  GraphNode a;
  a.name = "a";
  GraphNode b;
  b.name = "b";
  const NodeId na = g.add_node(a);
  const NodeId nb = g.add_node(b);
  g.set_primary_input(na, 1, false);
  g.set_primary_output(nb, 0);
  g.add_wire_arc(na, nb, 1.5);
  ASSERT_EQ(g.primary_inputs().size(), 2u);
  ASSERT_EQ(g.primary_inputs()[0], kInvalidId);
  BoundaryConstraints bc;
  bc.pi.resize(2);
  bc.po.resize(1);
  Sta sta(g);
  EXPECT_NO_THROW(sta.run(bc));
  EXPECT_EQ(sta.timing(nb).at(kLate, kRise), 1.5);
}

TEST(Sta, NodesPropagatedCountsLiveNodes) {
  const Design d = test::make_small_design("count", 45);
  TimingGraph g = build_timing_graph(d);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (g.node(n).role == NodeRole::kInternal && !g.node(n).is_ff_clock &&
        !g.node(n).is_ff_data && !g.node(n).in_clock_network) {
      g.kill_node(n);
      break;
    }
  ASSERT_LT(g.num_live_nodes(), g.num_nodes());
  Rng rng(6);
  const BoundaryConstraints bc = random_constraints(
      d.primary_inputs().size(), d.primary_outputs().size(), {}, rng);
  const obs::Counter& counter = obs::counter("sta.nodes_propagated");
  Sta sta(g);
  for (int run = 0; run < 2; ++run) {  // fresh, then cached topology
    const std::uint64_t before = counter.value();
    sta.run(bc);
    EXPECT_EQ(counter.value() - before, g.num_live_nodes()) << "run " << run;
  }
}

TEST(Sta, TighterClockPeriodReducesSlack) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  sta.run(nominal_constraints(2, 1, 1000.0));
  const double loose = sta.worst_slack(kLate);
  sta.run(nominal_constraints(2, 1, 500.0));
  const double tight = sta.worst_slack(kLate);
  EXPECT_LT(tight, loose);
}

// ---------------------------------------------------------------------
// Golden fingerprints: FNV-1a over the bit patterns of every live
// node's slew/at/rat and endpoint credit, for every cppr x aocv
// combination at 1 and 4 threads. The constants were recorded
// from the engine before its passes were unified onto the levelized
// walk; they are an external reference, so a change to propagation
// order, tie-breaks or check seeding that moves any bit fails here even
// when serial and parallel runs still agree with each other.

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, double v) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t sta_fingerprint(const Sta& sta, const TimingGraph& g) {
  std::uint64_t h = kFnvOffset;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).dead) continue;
    const PinTiming t = sta.timing(n);
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        h = fnv1a(h, t.slew(el, rf));
        h = fnv1a(h, t.at(el, rf));
        h = fnv1a(h, t.rat(el, rf));
        h = fnv1a(h, sta.endpoint_credit(n, el, rf));
      }
  }
  return h;
}

/// want[mode] with mode = cppr + 2*aocv.
void expect_golden(const TimingGraph& g, std::uint64_t seed,
                   const std::array<std::uint64_t, 4>& want) {
  Rng rng(seed);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
  for (unsigned mode = 0; mode < want.size(); ++mode) {
    Sta::Options opt;
    opt.cppr = (mode & 1u) != 0;
    opt.aocv.enabled = (mode & 2u) != 0;
    opt.parallel_min_nodes = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      opt.threads = threads;
      Sta sta(g, opt);
      sta.run(bc);
      EXPECT_EQ(sta_fingerprint(sta, g), want[mode])
          << "cppr=" << opt.cppr << " aocv=" << opt.aocv.enabled
          << " threads=" << threads;
    }
  }
}

TEST(StaGolden, TinyDesign) {
  const Design d = test::make_tiny_design();
  const TimingGraph g = build_timing_graph(d);
  expect_golden(g, 0xA1,
                {15936043902550638789ull, 843059859524754095ull,
                 7111778994838866836ull, 3073784942321550504ull});
}

TEST(StaGolden, SmallDesign) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  expect_golden(g, 0xA2,
                {14615069300536438192ull, 915754304873739836ull,
                 11492545492460923602ull, 14448078639819737526ull});
}

TEST(StaGolden, Ilm) {
  const Design d = test::make_small_design();
  const TimingGraph flat = build_timing_graph(d);
  expect_golden(extract_ilm(flat).graph, 0xA3,
                {3741777539853752949ull, 3741777539853752949ull,
                 474312588776548142ull, 474312588776548142ull});
}

TEST(StaGolden, BufferChain) {
  const Design d = test::make_buffer_chain(40);
  const TimingGraph g = build_timing_graph(d);
  expect_golden(g, 0xA4,
                {12106167403589844794ull, 12106167403589844794ull,
                 10168646074752075660ull, 10168646074752075660ull});
}

TEST(StaGolden, CpprDesign) {
  const Design d = make_cppr_design();
  const TimingGraph g = build_timing_graph(d);
  expect_golden(g, 0xA5,
                {10131251082277561189ull, 6966288993970081675ull,
                 10817641113089431188ull, 8123393888191501226ull});
}

}  // namespace
}  // namespace tmm
