#pragma once
// Full-graph training over a set of design graphs with class-weighted
// binary cross-entropy (positives — timing-variant pins — are rare).
// Each epoch runs the samples' forward/backward passes in parallel,
// then adds their gradients in sample order: the weights are the same
// bits at any thread count (docs/PERFORMANCE.md, "GNN training").

#include <span>

#include "gnn/adam.hpp"
#include "gnn/graphsage.hpp"
#include "gnn/metrics.hpp"

namespace tmm {

/// One training design: graph structure, per-node features and labels,
/// and a mask selecting the nodes that contribute to the loss.
struct GraphSample {
  GnnGraph graph;
  Matrix features;            // n x F
  std::vector<float> labels;  // n, in {0,1}
  std::vector<unsigned char> mask;
};

enum class LossKind : std::uint8_t {
  kBinaryCrossEntropy,  ///< classification: label = (TS > 0)
  kMeanSquaredError,    ///< regression on sigmoid output (Section 5.3)
};

/// Positive examples are weighted #neg / #pos over the training set,
/// capped at 50.
struct TrainConfig {
  std::size_t epochs = 150;
  float lr = 0.01f;  ///< Adam learning rate
  LossKind loss = LossKind::kBinaryCrossEntropy;
  /// Stop early when the loss improves by less than 1e-5 for `patience`
  /// consecutive epochs (0 = disabled).
  std::size_t patience = 25;
  /// Threads for the per-sample passes of an epoch: 1 = serial, 0 =
  /// auto (util::TaskPool::default_threads()), N = at most N. The
  /// weights do not depend on it.
  std::size_t threads = 1;
};

struct TrainReport {
  double final_loss = 0.0;
  std::size_t epochs_run = 0;
  Confusion train_confusion;
  double seconds = 0.0;
};

/// Masked, class-weighted BCE-with-logits; fills `dlogits` (sized like
/// logits) with the gradient. Returns the mean loss.
double bce_with_logits(const Matrix& logits, std::span<const float> labels,
                       std::span<const unsigned char> mask, float pos_weight,
                       Matrix& dlogits);

/// Masked, weighted MSE on sigmoid(logits) against targets in [0, 1]
/// (the regression formulation of Section 5.3: targets are normalized
/// timing sensitivities, so the model learns relative criticality).
/// `dlogits` is sized like logits.
double mse_on_sigmoid(const Matrix& logits, std::span<const float> targets,
                      std::span<const unsigned char> mask, float pos_weight,
                      Matrix& dlogits);

/// Throws fault::FlowError(kConfig), before any pass runs, unless every
/// sample has one feature row of model.config().input_dim per node and
/// one label (and, when non-empty, one mask entry) per node.
TrainReport train_model(GnnModel& model, std::span<const GraphSample> samples,
                        const TrainConfig& cfg = {});

}  // namespace tmm
