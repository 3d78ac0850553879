#include "sta/timing_graph.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace tmm {

namespace {

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// GraphArc::one_grid of an arc with these tables: every table has the
/// slew and load axes of delay(0, 0), compared bit for bit so that -0
/// and +0 knots, which locate with differently signed weights, differ.
bool shares_one_grid(const ElRf<Lut>* delay,
                     const ElRf<Lut>* out_slew) noexcept {
  if (delay == nullptr || out_slew == nullptr) return false;
  const Lut& ref = (*delay)(0, 0);
  for (const ElRf<Lut>* t : {delay, out_slew})
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        if (!same_bits((*t)(el, rf).slew_index(), ref.slew_index()) ||
            !same_bits((*t)(el, rf).load_index(), ref.load_index()))
          return false;
  return true;
}

}  // namespace

NodeId TimingGraph::add_node(GraphNode node) {
  invalidate();
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

ArcId TimingGraph::add_cell_arc(NodeId from, NodeId to, ArcSense sense,
                                const ElRf<Lut>* delay,
                                const ElRf<Lut>* out_slew, bool is_launch) {
  invalidate();
  GraphArc a;
  a.from = from;
  a.to = to;
  a.kind = GraphArcKind::kCell;
  a.sense = sense;
  a.is_launch = is_launch;
  a.delay = delay;
  a.out_slew = out_slew;
  a.one_grid = shares_one_grid(delay, out_slew);
  arcs_.push_back(a);
  return static_cast<ArcId>(arcs_.size() - 1);
}

ArcId TimingGraph::add_wire_arc(NodeId from, NodeId to, double delay_ps) {
  invalidate();
  GraphArc a;
  a.from = from;
  a.to = to;
  a.kind = GraphArcKind::kWire;
  a.sense = ArcSense::kPositiveUnate;
  a.wire_delay_ps = delay_ps;
  arcs_.push_back(a);
  return static_cast<ArcId>(arcs_.size() - 1);
}

void TimingGraph::set_cell_tables(ArcId a, const ElRf<Lut>* delay,
                                  const ElRf<Lut>* out_slew) {
  GraphArc& arc = arcs_.at(a);
  arc.delay = delay;
  arc.out_slew = out_slew;
  arc.one_grid = shares_one_grid(delay, out_slew);
}

std::uint32_t TimingGraph::add_check(NodeId clock, NodeId data, bool is_setup,
                                     const ElRf<Lut>* guard) {
  invalidate();
  CheckArc c;
  c.clock = clock;
  c.data = data;
  c.is_setup = is_setup;
  c.guard = guard;
  checks_.push_back(c);
  return static_cast<std::uint32_t>(checks_.size() - 1);
}

const ElRf<Lut>* TimingGraph::own_tables(ElRf<Lut> tables) {
  owned_tables_.push_back(std::move(tables));
  return &owned_tables_.back();
}

bool TimingGraph::owns_tables(const ElRf<Lut>* tables) const noexcept {
  if (tables == nullptr) return false;
  for (const auto& t : owned_tables_)
    if (&t == tables) return true;
  return false;
}

void TimingGraph::kill_node(NodeId n) {
  invalidate();
  nodes_.at(n).dead = true;
  for (auto& a : arcs_)
    if (!a.dead && (a.from == n || a.to == n)) a.dead = true;
  for (auto& c : checks_)
    if (!c.dead && (c.clock == n || c.data == n)) c.dead = true;
}

void TimingGraph::kill_arc(ArcId a) {
  invalidate();
  arcs_.at(a).dead = true;
}

namespace {

/// Remove one id from a sorted adjacency list, preserving order.
void adj_erase(std::vector<ArcId>& v, ArcId a) {
  const auto it = std::find(v.begin(), v.end(), a);
  if (it != v.end()) v.erase(it);
}

/// Insert one id into a sorted adjacency list at its ascending position.
void adj_insert(std::vector<ArcId>& v, ArcId a) {
  v.insert(std::lower_bound(v.begin(), v.end(), a), a);
}

}  // namespace

void TimingGraph::delta_kill_arc(ArcId a) {
  ++structure_version_;
  GraphArc& arc = arcs_.at(a);
  arc.dead = true;
  if (adjacency_valid_) {
    adj_erase(fanout_[arc.from], a);
    adj_erase(fanin_[arc.to], a);
  }
}

void TimingGraph::delta_restore_arc(ArcId a) {
  ++structure_version_;
  GraphArc& arc = arcs_.at(a);
  arc.dead = false;
  if (adjacency_valid_) {
    adj_insert(fanout_[arc.from], a);
    adj_insert(fanin_[arc.to], a);
  }
}

ArcId TimingGraph::delta_add_cell_arc(NodeId from, NodeId to, ArcSense sense,
                                      const ElRf<Lut>* delay,
                                      const ElRf<Lut>* out_slew,
                                      bool is_launch) {
  ++structure_version_;
  GraphArc a;
  a.from = from;
  a.to = to;
  a.kind = GraphArcKind::kCell;
  a.sense = sense;
  a.is_launch = is_launch;
  a.delay = delay;
  a.out_slew = out_slew;
  a.one_grid = shares_one_grid(delay, out_slew);
  arcs_.push_back(a);
  const ArcId id = static_cast<ArcId>(arcs_.size() - 1);
  if (adjacency_valid_) {
    // New ids are maximal, so push_back keeps the ascending order.
    fanout_[from].push_back(id);
    fanin_[to].push_back(id);
  }
  return id;
}

void TimingGraph::delta_set_node_dead(NodeId n, bool dead) {
  ++structure_version_;
  nodes_.at(n).dead = dead;
}

void TimingGraph::delta_truncate(std::size_t num_arcs,
                                 std::size_t num_tables) {
  ++structure_version_;
  while (arcs_.size() > num_arcs) {
    const GraphArc& a = arcs_.back();
    if (!a.dead && adjacency_valid_) {
      adj_erase(fanout_[a.from], static_cast<ArcId>(arcs_.size() - 1));
      adj_erase(fanin_[a.to], static_cast<ArcId>(arcs_.size() - 1));
    }
    arcs_.pop_back();
  }
  while (owned_tables_.size() > num_tables) owned_tables_.pop_back();
}

std::size_t TimingGraph::num_live_nodes() const {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (!node.dead) ++n;
  return n;
}

std::size_t TimingGraph::num_live_arcs() const {
  std::size_t n = 0;
  for (const auto& arc : arcs_)
    if (!arc.dead) ++n;
  return n;
}

void TimingGraph::invalidate() const {
  adjacency_valid_ = false;
  topo_valid_ = false;
  ++structure_version_;
}

void TimingGraph::rebuild_adjacency() const {
  fanin_.assign(nodes_.size(), {});
  fanout_.assign(nodes_.size(), {});
  node_checks_.assign(nodes_.size(), {});
  for (ArcId a = 0; a < arcs_.size(); ++a) {
    const auto& arc = arcs_[a];
    if (arc.dead) continue;
    fanout_[arc.from].push_back(a);
    fanin_[arc.to].push_back(a);
  }
  for (std::uint32_t c = 0; c < checks_.size(); ++c) {
    if (checks_[c].dead) continue;
    node_checks_[checks_[c].data].push_back(c);
  }
  adjacency_valid_ = true;
}

const std::vector<ArcId>& TimingGraph::fanin(NodeId n) const {
  if (!adjacency_valid_) rebuild_adjacency();
  return fanin_.at(n);
}

const std::vector<ArcId>& TimingGraph::fanout(NodeId n) const {
  if (!adjacency_valid_) rebuild_adjacency();
  return fanout_.at(n);
}

const std::vector<std::uint32_t>& TimingGraph::checks_of(NodeId n) const {
  if (!adjacency_valid_) rebuild_adjacency();
  return node_checks_.at(n);
}

const std::vector<NodeId>& TimingGraph::topo_order() const {
  if (topo_valid_) return topo_;
  if (!adjacency_valid_) rebuild_adjacency();
  topo_.clear();
  topo_.reserve(nodes_.size());
  std::vector<std::uint32_t> indeg(nodes_.size(), 0);
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].dead) continue;
    indeg[n] = static_cast<std::uint32_t>(fanin_[n].size());
    if (indeg[n] == 0) topo_.push_back(n);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const NodeId u = topo_[head];
    for (ArcId a : fanout_[u]) {
      const NodeId v = arcs_[a].to;
      if (--indeg[v] == 0) topo_.push_back(v);
    }
  }
  if (topo_.size() != num_live_nodes()) {
    std::string msg = "TimingGraph::topo_order: graph has a cycle";
    const std::vector<NodeId> cycle = find_cycle(*this);
    if (!cycle.empty()) {
      msg += " through ";
      for (NodeId u : cycle) {
        msg += nodes_[u].name;
        msg += " -> ";
      }
      msg += nodes_[cycle.front()].name;
    }
    throw std::runtime_error(msg);
  }
  topo_valid_ = true;
  return topo_;
}

void TimingGraph::set_primary_input(NodeId n, std::uint32_t ordinal,
                                    bool is_clock) {
  auto& node = nodes_.at(n);
  node.role = NodeRole::kPrimaryInput;
  node.port_ordinal = ordinal;
  if (pis_.size() <= ordinal) pis_.resize(ordinal + 1, kInvalidId);
  pis_[ordinal] = n;
  if (is_clock) {
    node.is_clock_root = true;
    clock_root_ = n;
  }
}

void TimingGraph::set_primary_output(NodeId n, std::uint32_t ordinal) {
  auto& node = nodes_.at(n);
  node.role = NodeRole::kPrimaryOutput;
  node.port_ordinal = ordinal;
  if (pos_.size() <= ordinal) pos_.resize(ordinal + 1, kInvalidId);
  pos_[ordinal] = n;
}

std::size_t TimingGraph::owned_table_doubles() const {
  std::size_t total = 0;
  for (const auto& t : owned_tables_)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        total += t(el, rf).storage_doubles();
  return total;
}

std::size_t TimingGraph::memory_bytes() const {
  std::size_t bytes = nodes_.size() * sizeof(GraphNode) +
                      arcs_.size() * sizeof(GraphArc) +
                      checks_.size() * sizeof(CheckArc);
  for (const auto& n : nodes_) {
    bytes += n.name.capacity();
    bytes += n.attached_po_loads.capacity() * sizeof(std::uint32_t);
  }
  bytes += owned_table_doubles() * sizeof(double);
  return bytes;
}

std::vector<NodeId> find_cycle(const TimingGraph& g) {
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  // 0 = unvisited, 1 = on the current DFS path, 2 = finished.
  std::vector<std::uint8_t> color(n, 0);
  std::vector<NodeId> path;
  std::vector<std::pair<NodeId, std::size_t>> stack;  // (node, next fanout)
  for (NodeId root = 0; root < n; ++root) {
    if (color[root] != 0 || g.node(root).dead) continue;
    color[root] = 1;
    path.push_back(root);
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const NodeId u = stack.back().first;
      const std::size_t idx = stack.back().second;
      const auto& fo = g.fanout(u);
      if (idx < fo.size()) {
        ++stack.back().second;
        const NodeId v = g.arc(fo[idx]).to;
        if (color[v] == 1) {
          // Back edge: the cycle is the path suffix starting at v.
          const auto it = std::find(path.begin(), path.end(), v);
          return {it, path.end()};
        }
        if (color[v] == 0 && !g.node(v).dead) {
          color[v] = 1;
          path.push_back(v);
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
  return {};
}

bool is_last_stage(const TimingGraph& g, NodeId n) {
  const auto& node = g.node(n);
  if (!node.attached_po_loads.empty()) return true;
  for (ArcId a : g.fanout(n))
    if (g.node(g.arc(a).to).role == NodeRole::kPrimaryOutput) return true;
  return false;
}

bool is_cppr_crucial(const TimingGraph& g, NodeId n) {
  const auto& node = g.node(n);
  if (node.dead || !node.in_clock_network) return false;
  return g.fanout(n).size() > 1;
}

TimingGraph build_timing_graph(const Design& design) {
  obs::Span span("sta.graph_build");
  TimingGraph g;
  const Library& lib = design.library();

  // Nodes: one per design pin, same ids.
  for (PinId p = 0; p < design.num_pins(); ++p) {
    GraphNode node;
    node.name = design.pin_name(p);
    g.add_node(std::move(node));
  }

  // Boundary roles (ordinal = index within the design's PI/PO lists).
  for (std::uint32_t i = 0; i < design.primary_inputs().size(); ++i) {
    const PinId p = design.primary_inputs()[i];
    g.set_primary_input(p, i, p == design.clock_root());
  }
  for (std::uint32_t i = 0; i < design.primary_outputs().size(); ++i)
    g.set_primary_output(design.primary_outputs()[i], i);

  // Wire arcs and driver loads.
  for (NetId n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(n);
    auto& drv = g.node(net.driver);
    drv.static_load_ff = design.net_load_ff(n);
    for (std::size_t k = 0; k < net.sinks.size(); ++k) {
      const PinId s = net.sinks[k];
      const double delay = net.sink_res_kohm[k] * design.pin_cap_ff(s);
      g.add_wire_arc(net.driver, s, delay);
      if (design.is_primary_output(s)) {
        const auto& pin = design.pin(s);
        drv.attached_po_loads.push_back(g.node(s).port_ordinal);
        (void)pin;
      }
    }
  }

  // Cell arcs and checks.
  for (GateId gi = 0; gi < design.num_gates(); ++gi) {
    const Gate& gate = design.gate(gi);
    const Cell& cell = lib.cell(gate.cell);
    for (const auto& spec : cell.arcs) {
      const PinId from = gate.pins[spec.from_port];
      const PinId to = gate.pins[spec.to_port];
      switch (spec.kind) {
        case ArcKind::kCombinational:
          g.add_cell_arc(from, to, spec.sense, &spec.delay, &spec.out_slew);
          break;
        case ArcKind::kClockToQ:
          g.add_cell_arc(from, to, spec.sense, &spec.delay, &spec.out_slew,
                         /*is_launch=*/true);
          break;
        case ArcKind::kSetup:
          g.add_check(from, to, /*is_setup=*/true, &spec.delay);
          break;
        case ArcKind::kHold:
          g.add_check(from, to, /*is_setup=*/false, &spec.delay);
          break;
      }
    }
    if (cell.is_sequential) {
      for (std::uint32_t pi = 0; pi < cell.ports.size(); ++pi) {
        if (cell.ports[pi].is_clock)
          g.node(gate.pins[pi]).is_ff_clock = true;
        else if (cell.ports[pi].dir == PortDir::kInput)
          g.node(gate.pins[pi]).is_ff_data = true;
      }
    }
  }

  // AOCV stage depths: number of cell arcs on the shortest path from a
  // timing start point (PI or flop clock pin).
  {
    std::vector<std::uint32_t> depth(g.num_nodes(), 0xffffffffu);
    for (NodeId p : g.primary_inputs())
      if (p != kInvalidId) depth[p] = 0;
    for (NodeId u : g.topo_order()) {
      if (g.node(u).is_ff_clock) depth[u] = 0;  // launch point restarts
      if (depth[u] == 0xffffffffu) continue;
      for (ArcId a : g.fanout(u)) {
        const auto& arc = g.arc(a);
        const std::uint32_t step =
            arc.kind == GraphArcKind::kCell ? 1u : 0u;
        if (depth[u] + step < depth[arc.to]) depth[arc.to] = depth[u] + step;
      }
    }
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      g.node(u).aocv_depth = depth[u] == 0xffffffffu ? 0 : depth[u];
  }

  // Clock-network marking: forward reachability from the clock root,
  // stopping at flip-flop clock pins (launch arcs leave the network).
  if (g.clock_root() != kInvalidId) {
    std::vector<NodeId> stack{g.clock_root()};
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      auto& nu = g.node(u);
      if (nu.in_clock_network) continue;
      nu.in_clock_network = true;
      if (nu.is_ff_clock) continue;
      for (ArcId a : g.fanout(u)) {
        if (g.arc(a).is_launch) continue;
        stack.push_back(g.arc(a).to);
      }
    }
  }
  return g;
}

}  // namespace tmm
