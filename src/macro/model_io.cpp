#include "macro/model_io.hpp"

#include <algorithm>
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
#include "util/task_pool.hpp"
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

/// Compact ids of the live nodes (kInvalidId for dead ones), in id order.
std::vector<NodeId> compact_node_ids(const TimingGraph& g) {
  std::vector<NodeId> to_compact(g.num_nodes(), kInvalidId);
  NodeId live = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (!g.node(n).dead) to_compact[n] = live++;
  return to_compact;
}

/// Formats records of one model into one buffer. Each table set is
/// formatted once per writer: unmerged cell arcs and checks share the
/// library's ElRf<Lut>, so a pointer seen before appends a copy of the
/// bytes (offset, length) it wrote the first time. A table's text does
/// not depend on where it is written, so writers over disjoint record
/// ranges add up to the bytes of one writer over all of them.
///
/// A counting writer (keep_text false) only measures: a table set seen
/// before adds its length instead of a copy, and flush() drops the text
/// written so far, so it never holds more than one flush's worth.
class ModelWriter {
 public:
  ModelWriter(const TimingGraph& g, const std::vector<NodeId>& to_compact,
              bool keep_text)
      : g_(g), to_compact_(to_compact), keep_text_(keep_text) {}

  void header(const std::string& design_name) {
    std::size_t live = 0;
    for (NodeId n = 0; n < g_.num_nodes(); ++n)
      if (!g_.node(n).dead) ++live;
    std::size_t live_arcs = 0;
    for (ArcId a = 0; a < g_.num_arcs(); ++a)
      if (!g_.arc(a).dead) ++live_arcs;
    std::size_t live_checks = 0;
    for (const auto& c : g_.checks())
      if (!c.dead) ++live_checks;
    buf_ << "macro " << design_name << ' ' << live << ' ' << live_arcs << ' '
         << live_checks << '\n';
  }

  void nodes() {
    for (NodeId n = 0; n < g_.num_nodes(); ++n) {
      const auto& node = g_.node(n);
      if (node.dead) continue;
      unsigned flags = 0;
      if (node.is_clock_root) flags |= 1u;
      if (node.in_clock_network) flags |= 2u;
      if (node.is_ff_clock) flags |= 4u;
      if (node.is_ff_data) flags |= 8u;
      buf_ << "node " << node.name << ' ' << static_cast<int>(node.role)
           << ' ' << node.port_ordinal << ' ' << flags << ' '
           << node.static_load_ff << ' ' << node.aocv_depth << ' '
           << node.attached_po_loads.size();
      for (auto po : node.attached_po_loads) buf_ << ' ' << po;
      buf_ << '\n';
    }
  }

  /// The arc records with ids in [begin, end).
  void arcs(ArcId begin, ArcId end) {
    for (ArcId a = begin; a < end; ++a) {
      const auto& arc = g_.arc(a);
      if (arc.dead) continue;
      buf_ << "arc " << to_compact_[arc.from] << ' ' << to_compact_[arc.to]
           << ' ' << static_cast<int>(arc.kind) << ' '
           << static_cast<int>(arc.sense) << ' ' << (arc.is_launch ? 1 : 0)
           << ' ' << (arc.baked_derate ? 1 : 0) << ' ' << arc.wire_delay_ps
           << '\n';
      if (arc.kind == GraphArcKind::kCell) {
        tables(arc.delay);
        tables(arc.out_slew);
      }
    }
  }

  void checks() {
    for (const auto& c : g_.checks()) {
      if (c.dead) continue;
      buf_ << "check " << to_compact_[c.clock] << ' ' << to_compact_[c.data]
           << ' ' << (c.is_setup ? 1 : 0) << '\n';
      tables(c.guard);
    }
  }

  /// Bytes of every record written so far.
  std::size_t size() const noexcept { return dropped_ + buf_.size(); }
  std::string take() && { return std::move(buf_).take(); }

  void flush() {
    if (keep_text_) return;
    dropped_ += buf_.size();
    buf_.clear();
  }

 private:
  void tables(const ElRf<Lut>* t) {
    const auto [it, fresh] = written_.try_emplace(t, buf_.size(), 0);
    if (fresh) {
      write_tables(buf_, *t);
      it->second.second = buf_.size() - it->second.first;
    } else if (keep_text_) {
      buf_.append_copy(it->second.first, it->second.second);
    } else {
      dropped_ += it->second.second;
    }
  }

  const TimingGraph& g_;
  const std::vector<NodeId>& to_compact_;
  const bool keep_text_;
  std::size_t dropped_ = 0;  ///< bytes a counting writer measured and dropped
  util::TextOut buf_{9};
  std::unordered_map<const ElRf<Lut>*, std::pair<std::size_t, std::size_t>>
      written_;
};

std::string format_macro_model(const MacroModel& model) {
  const TimingGraph& g = model.graph;
  const std::vector<NodeId> to_compact = compact_node_ids(g);
  ModelWriter w(g, to_compact, /*keep_text=*/true);
  w.header(model.design_name);
  w.nodes();
  w.arcs(0, static_cast<ArcId>(g.num_arcs()));
  w.checks();
  return std::move(w).take();
}

}  // namespace

std::size_t write_macro_model(const MacroModel& model, std::ostream& os) {
  const std::string s = format_macro_model(model);
  os << s;
  return s.size();
}

std::size_t macro_model_size_bytes(const MacroModel& model,
                                   std::size_t threads) {
  obs::Span span("macro.size");
  const TimingGraph& g = model.graph;
  const std::vector<NodeId> to_compact = compact_node_ids(g);
  ModelWriter rest(g, to_compact, /*keep_text=*/false);
  rest.header(model.design_name);
  rest.nodes();
  rest.checks();
  // The arc records (nearly all of the text) on `writers` threads, each
  // with its own counting writer over every writers-th block of arc
  // ids: merged arcs, whose tables are formatted rather than copied, sit
  // at the end of the id range, so interleaved blocks spread them.
  constexpr std::size_t kBlock = 64;
  const std::size_t writers =
      threads == 0 ? util::TaskPool::default_threads() : threads;
  const std::size_t arcs = g.num_arcs();
  std::vector<std::size_t> bytes(writers, 0);
  util::parallel_chunks(writers, 1, writers, [&](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      ModelWriter w(g, to_compact, /*keep_text=*/false);
      for (std::size_t lo = r * kBlock; lo < arcs; lo += writers * kBlock) {
        w.arcs(static_cast<ArcId>(lo),
               static_cast<ArcId>(std::min(arcs, lo + kBlock)));
        w.flush();
      }
      bytes[r] = w.size();
    }
  });
  std::size_t total = rest.size();
  for (std::size_t b : bytes) total += b;
  return total;
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
