// Training the pin classifier directly through the GNN API (Section
// 5.1): trains GraphSAGE on the sensitivity data of two designs, scores
// it on a held-out third, and shows model persistence (train once, ship
// the weights, predict anywhere). Exits non-zero if the save/load round
// trip changes any prediction.
//
// Build & run:   ./build/examples/custom_gnn

#include <cstdio>
#include <sstream>

#include "flow/framework.hpp"
#include "liberty/library_gen.hpp"
#include "netlist/design_gen.hpp"

using namespace tmm;

namespace {

GraphSample make_sample(const TimingGraph& ilm, const SensitivityData& data,
                        bool cppr_feature) {
  GraphSample s;
  s.graph = GnnGraph::from_timing_graph(ilm);
  s.features = extract_features(ilm, cppr_feature);
  s.labels = data.labels;
  s.mask.assign(ilm.num_nodes(), 1);
  for (NodeId n = 0; n < ilm.num_nodes(); ++n)
    if (ilm.node(n).dead) s.mask[n] = 0;
  return s;
}

}  // namespace

int main() {
  const Library lib = generate_library();

  // Sensitivity data for two training designs and one held-out design.
  TrainingDataConfig data_cfg;
  data_cfg.ts.num_constraint_sets = 3;
  std::vector<TimingGraph> ilms;
  std::vector<SensitivityData> data;
  for (std::uint64_t seed : {51, 52, 53}) {
    DesignGenConfig cfg;
    cfg.name = "d";
    cfg.name += std::to_string(seed);
    cfg.seed = seed;
    cfg.num_flops = 48;
    cfg.levels = 6;
    cfg.gates_per_level = 40;
    const Design d = generate_design(lib, cfg);
    const TimingGraph flat = build_timing_graph(d);
    IlmResult ilm = extract_ilm(flat);
    data.push_back(generate_training_data(ilm.graph, data_cfg));
    ilms.push_back(std::move(ilm.graph));
    std::printf("design d%lu: %zu ILM pins, %zu timing-variant\n",
                static_cast<unsigned long>(seed),
                ilms.back().num_live_nodes(), data.back().positives);
  }

  std::vector<GraphSample> train_set;
  train_set.push_back(make_sample(ilms[0], data[0], true));
  train_set.push_back(make_sample(ilms[1], data[1], true));
  const GraphSample held_out = make_sample(ilms[2], data[2], true);

  GnnModelConfig mcfg;
  mcfg.input_dim = kNumFeaturesWithCppr;
  mcfg.hidden_dim = 32;
  mcfg.num_layers = 2;
  GnnModel model(mcfg);
  TrainConfig tcfg;
  tcfg.epochs = 200;
  const TrainReport rep = train_model(model, train_set, tcfg);

  const auto probs = model.predict(held_out.graph, held_out.features);
  const Confusion c = confusion_matrix(probs, held_out.labels, held_out.mask);
  std::printf("\nGraphSAGE: %zu epochs, loss %.4f, held-out design d53:\n",
              rep.epochs_run, rep.final_loss);
  std::printf("  accuracy %.3f  precision %.3f  recall %.3f  F1 %.3f\n",
              c.accuracy(), c.precision(), c.recall(), c.f1());

  // Persist + reload: identical predictions.
  std::stringstream ss;
  model.save(ss);
  GnnModel reloaded = GnnModel::load(ss);
  const auto probs2 = reloaded.predict(held_out.graph, held_out.features);
  double max_dev = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i)
    max_dev = std::max(max_dev,
                       static_cast<double>(std::abs(probs[i] - probs2[i])));
  std::printf("  save/load round trip: max probability deviation %.2g\n",
              max_dev);
  return max_dev == 0.0 ? 0 : 1;
}
