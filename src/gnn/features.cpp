#include "gnn/features.hpp"

#include <algorithm>

namespace tmm {

std::vector<std::string> feature_names(bool include_cppr) {
  std::vector<std::string> names{
      "level_from_PI",  "level_to_PO",      "is_last_stage_fanout",
      "is_last_stage",  "is_first_stage",   "out_degree",
      "is_clock_network", "is_ff_clock",
  };
  if (include_cppr) names.push_back("is_CPPR");
  return names;
}

std::vector<int> levels_from_pi(const TimingGraph& g) {
  std::vector<int> level(g.num_nodes(), -1);
  for (NodeId p : g.primary_inputs())
    if (p != kInvalidId) level[p] = 0;
  for (NodeId u : g.topo_order()) {
    if (level[u] < 0) continue;
    for (ArcId a : g.fanout(u)) {
      const NodeId v = g.arc(a).to;
      if (level[v] < 0 || level[u] + 1 < level[v]) level[v] = level[u] + 1;
    }
  }
  return level;
}

std::vector<int> levels_to_po(const TimingGraph& g) {
  std::vector<int> level(g.num_nodes(), -1);
  for (NodeId p : g.primary_outputs())
    if (p != kInvalidId) level[p] = 0;
  const auto& order = g.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId u = *it;
    for (ArcId a : g.fanout(u)) {
      const NodeId v = g.arc(a).to;
      if (level[v] < 0) continue;
      if (level[u] < 0 || level[v] + 1 < level[u]) level[u] = level[v] + 1;
    }
  }
  return level;
}

Matrix extract_features(const TimingGraph& g, bool include_cppr) {
  const std::size_t n = g.num_nodes();
  const std::size_t f =
      include_cppr ? kNumFeaturesWithCppr : kNumBasicFeatures;
  Matrix x(n, f);

  const auto from_pi = levels_from_pi(g);
  const auto to_po = levels_to_po(g);
  int max_from = 1;
  int max_to = 1;
  std::size_t max_deg = 1;
  for (NodeId u = 0; u < n; ++u) {
    if (g.node(u).dead) continue;
    max_from = std::max(max_from, from_pi[u]);
    max_to = std::max(max_to, to_po[u]);
    max_deg = std::max(max_deg, g.fanout(u).size());
  }

  // last-stage flags first (needed for the fanout-of-last-stage flag).
  std::vector<unsigned char> last_stage(n, 0);
  for (NodeId u = 0; u < n; ++u)
    if (!g.node(u).dead && is_last_stage(g, u)) last_stage[u] = 1;

  for (NodeId u = 0; u < n; ++u) {
    const auto& node = g.node(u);
    if (node.dead) continue;
    auto row = x.row(u);
    row[0] = from_pi[u] < 0
                 ? 1.0f
                 : static_cast<float>(from_pi[u]) / static_cast<float>(max_from);
    row[1] = to_po[u] < 0
                 ? 1.0f
                 : static_cast<float>(to_po[u]) / static_cast<float>(max_to);
    bool last_stage_fanout = false;
    for (ArcId a : g.fanin(u)) {
      if (last_stage[g.arc(a).from]) {
        last_stage_fanout = true;
        break;
      }
    }
    row[2] = last_stage_fanout ? 1.0f : 0.0f;
    row[3] = last_stage[u] ? 1.0f : 0.0f;
    bool first_stage = node.role == NodeRole::kPrimaryInput;
    for (ArcId a : g.fanin(u)) {
      if (g.node(g.arc(a).from).role == NodeRole::kPrimaryInput) {
        first_stage = true;
        break;
      }
    }
    row[4] = first_stage ? 1.0f : 0.0f;
    row[5] = static_cast<float>(g.fanout(u).size()) /
             static_cast<float>(max_deg);
    row[6] = node.in_clock_network ? 1.0f : 0.0f;
    row[7] = node.is_ff_clock ? 1.0f : 0.0f;
    if (include_cppr) row[8] = is_cppr_crucial(g, u) ? 1.0f : 0.0f;
  }
  return x;
}

}  // namespace tmm
