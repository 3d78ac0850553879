#pragma once
// Full-graph training over a set of design graphs with class-weighted
// binary cross-entropy (positives — timing-variant pins — are rare).

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
};

struct TrainReport {
  double final_loss = 0.0;
  std::size_t epochs_run = 0;
  Confusion train_confusion;
  double seconds = 0.0;
};

/// Masked, class-weighted BCE-with-logits; fills `dlogits` with the
/// gradient (same shape as logits). Returns the mean loss.
double bce_with_logits(const Matrix& logits, std::span<const float> labels,
                       std::span<const unsigned char> mask, float pos_weight,
                       Matrix& dlogits);

/// Masked, weighted MSE on sigmoid(logits) against targets in [0, 1]
/// (the regression formulation of Section 5.3: targets are normalized
/// timing sensitivities, so the model learns relative criticality).
double mse_on_sigmoid(const Matrix& logits, std::span<const float> targets,
                      std::span<const unsigned char> mask, float pos_weight,
                      Matrix& dlogits);

TrainReport train_model(GnnModel& model, std::span<const GraphSample> samples,
                        const TrainConfig& cfg = {});

}  // namespace tmm
