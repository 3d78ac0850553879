#include "macro/model_io.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/token_reader.hpp"
#include "obs/trace.hpp"
#include "util/atomic_io.hpp"
#include "util/text_out.hpp"

namespace tmm {

namespace {

using fault::ErrorCode;
using fault::FlowError;
using io::TokenReader;

/// Caps on count fields so a corrupt header cannot become a huge
/// allocation before the next tag check fires.
constexpr std::size_t kMaxRecords = 100'000'000;
constexpr std::size_t kMaxLutAxis = 10'000;

Lut read_lut(TokenReader& tr) {
  const std::size_t ni = tr.size_at_most("lut slew-axis size", kMaxLutAxis);
  const std::size_t nj = tr.size_at_most("lut load-axis size", kMaxLutAxis);
  std::vector<double> i1(ni);
  std::vector<double> i2(nj);
  for (auto& v : i1) v = tr.number("lut slew index");
  for (auto& v : i2) v = tr.number("lut load index");
  const std::size_t nvals = ni == 0 ? 1 : ni * std::max<std::size_t>(nj, 1);
  std::vector<double> vals(nvals);
  for (auto& v : vals) v = tr.number("lut value");
  try {
    if (ni == 0) return Lut::scalar(vals[0]);
    if (nj == 0) return Lut::table1d(std::move(i1), std::move(vals));
    return Lut::table2d(std::move(i1), std::move(i2), std::move(vals));
  } catch (const std::invalid_argument& e) {
    tr.fail(e.what());
  }
}

void write_tables(util::TextOut& out, const ElRf<Lut>& t) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) write_lut_text(out, t(el, rf));
}

ElRf<Lut> read_tables(TokenReader& tr) {
  ElRf<Lut> t;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) t(el, rf) = read_lut(tr);
  return t;
}

std::string format_macro_model(const MacroModel& model) {
  const TimingGraph& g = model.graph;
  util::TextOut buf(9);

  // Each table set is formatted once per model: unmerged cell arcs and
  // checks share the library's ElRf<Lut>, so a pointer seen before
  // appends a copy of the bytes (offset, length) it wrote the first time.
  std::unordered_map<const ElRf<Lut>*, std::pair<std::size_t, std::size_t>>
      written;
  auto tables = [&](const ElRf<Lut>* t) {
    const auto [it, fresh] = written.try_emplace(t, buf.size(), 0);
    if (fresh) {
      write_tables(buf, *t);
      it->second.second = buf.size() - it->second.first;
    } else {
      buf.append_copy(it->second.first, it->second.second);
    }
  };

  // Compact live node ids.
  std::vector<NodeId> to_compact(g.num_nodes(), kInvalidId);
  std::size_t live = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (!g.node(n).dead) to_compact[n] = static_cast<NodeId>(live++);

  std::size_t live_arcs = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a)
    if (!g.arc(a).dead) ++live_arcs;
  std::size_t live_checks = 0;
  for (const auto& c : g.checks())
    if (!c.dead) ++live_checks;

  buf << "macro " << model.design_name << ' ' << live << ' ' << live_arcs
      << ' ' << live_checks << '\n';

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto& node = g.node(n);
    if (node.dead) continue;
    unsigned flags = 0;
    if (node.is_clock_root) flags |= 1u;
    if (node.in_clock_network) flags |= 2u;
    if (node.is_ff_clock) flags |= 4u;
    if (node.is_ff_data) flags |= 8u;
    buf << "node " << node.name << ' ' << static_cast<int>(node.role) << ' '
        << node.port_ordinal << ' ' << flags << ' ' << node.static_load_ff
        << ' ' << node.aocv_depth << ' ' << node.attached_po_loads.size();
    for (auto po : node.attached_po_loads) buf << ' ' << po;
    buf << '\n';
  }

  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto& arc = g.arc(a);
    if (arc.dead) continue;
    buf << "arc " << to_compact[arc.from] << ' ' << to_compact[arc.to] << ' '
        << static_cast<int>(arc.kind) << ' ' << static_cast<int>(arc.sense)
        << ' ' << (arc.is_launch ? 1 : 0) << ' ' << (arc.baked_derate ? 1 : 0)
        << ' ' << arc.wire_delay_ps << '\n';
    if (arc.kind == GraphArcKind::kCell) {
      tables(arc.delay);
      tables(arc.out_slew);
    }
  }

  for (const auto& c : g.checks()) {
    if (c.dead) continue;
    buf << "check " << to_compact[c.clock] << ' ' << to_compact[c.data] << ' '
        << (c.is_setup ? 1 : 0) << '\n';
    tables(c.guard);
  }

  return std::move(buf).take();
}

}  // namespace

std::size_t write_macro_model(const MacroModel& model, std::ostream& os) {
  const std::string s = format_macro_model(model);
  os << s;
  return s.size();
}

std::size_t macro_model_size_bytes(const MacroModel& model) {
  obs::Span span("macro.size");
  return format_macro_model(model).size();
}

fault::Status bind_port_ordinals(TimingGraph& g) {
  const std::size_t n = g.num_nodes();
  // [0] PIs, [1] POs. Checked before any set_primary_* call: those
  // resize the port table to ordinal + 1, so an unchecked ordinal is an
  // allocation of up to 2^32 entries (or a wrap to zero at UINT32_MAX).
  std::array<std::vector<char>, 2> seen{std::vector<char>(n, 0),
                                        std::vector<char>(n, 0)};
  std::array<std::size_t, 2> count{};
  constexpr std::array<const char*, 2> kDir{"PI", "PO"};
  auto bad = [](std::string msg) {
    return fault::Status::failure(fault::ErrorCode::kParse, std::move(msg));
  };
  for (NodeId v = 0; v < n; ++v) {
    const GraphNode& node = g.node(v);
    if (node.role == NodeRole::kInternal) continue;
    const std::size_t d = node.role == NodeRole::kPrimaryOutput ? 1 : 0;
    const std::uint32_t k = node.port_ordinal;
    if (k >= n)
      return bad(std::string(kDir[d]) + " ordinal " + std::to_string(k) +
                 " of node '" + node.name + "' is not below the node count " +
                 std::to_string(n));
    if (seen[d][k])
      return bad("duplicate " + std::string(kDir[d]) + " ordinal " +
                 std::to_string(k) + " at node '" + node.name + "'");
    seen[d][k] = 1;
    ++count[d];
  }
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t k = 0; k < count[d]; ++k)
      if (!seen[d][k])
        return bad(std::string(kDir[d]) + " ordinals skip " +
                   std::to_string(k) + " (" + std::to_string(count[d]) +
                   " ports declared, ordinals must be 0.." +
                   std::to_string(count[d] - 1) + ")");
  for (NodeId v = 0; v < n; ++v) {
    const GraphNode& node = g.node(v);
    if (node.role == NodeRole::kPrimaryInput)
      g.set_primary_input(v, node.port_ordinal, node.is_clock_root);
    else if (node.role == NodeRole::kPrimaryOutput)
      g.set_primary_output(v, node.port_ordinal);
  }
  return {};
}

MacroModel read_macro_model(std::istream& is, std::string source) {
  fault::inject("macro.read");
  TokenReader tr(is, std::move(source));
  MacroModel model;
  tr.expect("macro");
  model.design_name = tr.token("design name");
  const std::size_t nn = tr.size_at_most("node count", kMaxRecords);
  const std::size_t na = tr.size_at_most("arc count", kMaxRecords);
  const std::size_t nc = tr.size_at_most("check count", kMaxRecords);
  TimingGraph& g = model.graph;

  for (std::size_t i = 0; i < nn; ++i) {
    tr.expect("node");
    GraphNode node;
    node.name = tr.token("node name");
    const int role = tr.integer_in("node role", 0,
                                   static_cast<int>(NodeRole::kPrimaryOutput));
    node.port_ordinal = tr.u32("port ordinal");
    const unsigned flags = static_cast<unsigned>(
        tr.integer_in("node flags", 0, 15));
    node.static_load_ff = tr.number("static load");
    node.aocv_depth = tr.u32("aocv depth");
    const std::size_t npo =
        tr.size_at_most("attached PO load count", kMaxRecords);
    node.role = static_cast<NodeRole>(role);
    node.is_clock_root = (flags & 1u) != 0;
    node.in_clock_network = (flags & 2u) != 0;
    node.is_ff_clock = (flags & 4u) != 0;
    node.is_ff_data = (flags & 8u) != 0;
    node.attached_po_loads.resize(npo);
    for (auto& po : node.attached_po_loads) po = tr.u32("attached PO ordinal");
    g.add_node(std::move(node));
  }
  if (const fault::Status st = bind_port_ordinals(g); !st.ok())
    tr.fail(st.message());

  auto node_ref = [&](const char* what) {
    const std::size_t id = tr.size(what);
    if (id >= nn)
      tr.fail("dangling node reference " + std::to_string(id) + " for " +
              what + " (model has " + std::to_string(nn) + " nodes)");
    return static_cast<NodeId>(id);
  };

  for (std::size_t i = 0; i < na; ++i) {
    tr.expect("arc");
    const NodeId from = node_ref("arc source");
    const NodeId to = node_ref("arc sink");
    const int kind = tr.integer_in(
        "arc kind", 0, static_cast<int>(GraphArcKind::kWire));
    const int sense = tr.integer_in(
        "arc sense", 0, static_cast<int>(ArcSense::kNonUnate));
    const int launch = tr.integer_in("launch flag", 0, 1);
    const int baked = tr.integer_in("baked-derate flag", 0, 1);
    const double wire_delay = tr.number("wire delay");
    if (static_cast<GraphArcKind>(kind) == GraphArcKind::kWire) {
      g.add_wire_arc(from, to, wire_delay);
    } else {
      const ElRf<Lut>* dt = g.own_tables(read_tables(tr));
      const ElRf<Lut>* st = g.own_tables(read_tables(tr));
      const ArcId id = g.add_cell_arc(from, to, static_cast<ArcSense>(sense),
                                      dt, st, launch != 0);
      g.arc(id).baked_derate = baked != 0;
    }
  }

  for (std::size_t i = 0; i < nc; ++i) {
    tr.expect("check");
    const NodeId ck = node_ref("check clock");
    const NodeId d = node_ref("check data");
    const int setup = tr.integer_in("setup flag", 0, 1);
    const ElRf<Lut>* guard = g.own_tables(read_tables(tr));
    g.add_check(ck, d, setup != 0, guard);
  }
  return model;
}

MacroModel read_macro_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw FlowError(ErrorCode::kIo, "macro.read", "cannot open " + path);
  return read_macro_model(is, path);
}

std::size_t write_macro_model_file(const MacroModel& model,
                                   const std::string& path) {
  obs::Span span("macro.write");
  fault::inject("macro.write");
  const std::string s = format_macro_model(model);
  util::atomic_write_file(path, s).or_throw("macro.write", model.design_name);
  return s.size();
}

}  // namespace tmm
