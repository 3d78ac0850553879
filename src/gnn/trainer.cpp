#include "gnn/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/instrument.hpp"
#include "util/log.hpp"
#include "util/task_pool.hpp"

namespace tmm {

namespace {

// Metric handles resolved at namespace scope (the registry is a leaked
// function-local static, so this is static-init safe) — keeps the init
// guard out of the per-epoch loop.
constexpr double kEpochBounds[] = {0.001, 0.01, 0.1, 1.0, 10.0};
obs::Counter& g_epochs_total = obs::counter("gnn.epochs");
obs::Histogram& g_epoch_hist =
    obs::histogram("gnn.epoch_seconds", kEpochBounds);

// Smallest loss improvement that resets the early-stopping count.
constexpr double kMinDelta = 1e-5;

void check_sample(const GnnModel& model, const GraphSample& s,
                  std::size_t index) {
  const std::size_t n = s.graph.num_nodes;
  std::string err = model.input_mismatch(s.graph, s.features);
  if (err.empty() &&
      (s.labels.size() != n || (!s.mask.empty() && s.mask.size() != n)))
    err = std::to_string(s.labels.size()) + " labels and " +
          std::to_string(s.mask.size()) + " mask entries for " +
          std::to_string(n) + " nodes";
  if (!err.empty())
    throw fault::FlowError(fault::ErrorCode::kConfig, "gnn.train",
                           "sample " + std::to_string(index) + ": " + err);
}

}  // namespace

double bce_with_logits(const Matrix& logits, std::span<const float> labels,
                       std::span<const unsigned char> mask, float pos_weight,
                       Matrix& dlogits) {
  assert(dlogits.rows() == logits.rows() && dlogits.cols() == logits.cols());
  dlogits.fill(0.0f);
  double loss = 0.0;
  double weight_sum = 0.0;
  const std::size_t n = logits.rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const float y = labels[i];
    const float z = logits(i, 0);
    const float w = y >= 0.5f ? pos_weight : 1.0f;
    // Stable BCE-with-logits: max(z,0) - z*y + log(1 + exp(-|z|)).
    const float zabs = std::fabs(z);
    loss += w * (std::max(z, 0.0f) - z * y + std::log1p(std::exp(-zabs)));
    dlogits(i, 0) = w * (sigmoidf(z) - y);
    weight_sum += w;
  }
  if (weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / weight_sum);
    for (float& v : dlogits.data()) v *= inv;
    loss /= weight_sum;
  }
  return loss;
}

double mse_on_sigmoid(const Matrix& logits, std::span<const float> targets,
                      std::span<const unsigned char> mask, float pos_weight,
                      Matrix& dlogits) {
  assert(dlogits.rows() == logits.rows() && dlogits.cols() == logits.cols());
  dlogits.fill(0.0f);
  double loss = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const float y = targets[i];
    const float p = sigmoidf(logits(i, 0));
    const float w = y > 0.0f ? pos_weight : 1.0f;
    const float e = p - y;
    loss += w * e * e;
    // d/dz (p - y)^2 = 2 (p - y) p (1 - p)
    dlogits(i, 0) = w * 2.0f * e * p * (1.0f - p);
    weight_sum += w;
  }
  if (weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / weight_sum);
    for (float& v : dlogits.data()) v *= inv;
    loss /= weight_sum;
  }
  return loss;
}

TrainReport train_model(GnnModel& model, std::span<const GraphSample> samples,
                        const TrainConfig& cfg) {
  TrainReport report;
  Stopwatch sw;
  for (std::size_t i = 0; i < samples.size(); ++i)
    check_sample(model, samples[i], i);

  std::size_t pos = 0;
  std::size_t neg = 0;
  for (const auto& s : samples) {
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
      if (!s.mask.empty() && !s.mask[i]) continue;
      (s.labels[i] >= 0.5f ? pos : neg)++;
    }
  }
  const float pos_weight = std::min(
      pos > 0 ? static_cast<float>(neg) / static_cast<float>(pos) : 1.0f,
      50.0f);

  obs::Span train_span("gnn.train");

  // Everything the passes write is allocated here, on this thread, so
  // the workers never call malloc (docs/PERFORMANCE.md, "GNN training").
  std::vector<GnnWorkspace> ws;
  ws.reserve(samples.size());
  for (const auto& s : samples)
    ws.push_back(model.workspace(s.graph.num_nodes, true));
  std::vector<double> losses(samples.size());
  const std::size_t threads = std::min(
      cfg.threads == 0 ? util::TaskPool::default_threads() : cfg.threads,
      std::max<std::size_t>(1, samples.size()));
  const GnnModel& frozen = model;  // the passes only read the weights
  auto run_passes = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const GraphSample& s = samples[i];
      GnnWorkspace& w = ws[i];
      frozen.forward(s.graph, s.features, w);
      losses[i] =
          cfg.loss == LossKind::kBinaryCrossEntropy
              ? bce_with_logits(w.head.z, s.labels, s.mask, pos_weight,
                                w.head.dz)
              : mse_on_sigmoid(w.head.z, s.labels, s.mask, pos_weight,
                               w.head.dz);
      frozen.backward(s.graph, s.features, w);
    }
  };

  Adam opt(model.params(), cfg.lr);
  double best_loss = std::numeric_limits<double>::infinity();
  std::size_t stall = 0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span("gnn.epoch");
    Stopwatch epoch_sw;
    if (threads == 1)
      run_passes(0, samples.size());
    else
      util::TaskPool::shared().parallel_for(samples.size(), 1, threads,
                                            run_passes);
    // The ordered reduction: gradients and losses add in sample order,
    // as a serial loop would add them.
    double epoch_loss = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      model.accumulate(ws[i]);
      epoch_loss += losses[i];
    }
    opt.step();
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, samples.size()));
    fault::inject("gnn.train_epoch");
    // Numeric guard: a diverged loss (NaN/Inf from an exploded update
    // or poisoned features) would silently optimize garbage for the
    // remaining epochs and produce a model that predicts NaN-shaped
    // keep-sets. Abort the stage with a structured error instead; the
    // flow layer records the failure and keeps the run alive.
    if (!std::isfinite(epoch_loss))
      throw fault::FlowError(
          fault::ErrorCode::kNumeric, "gnn.train",
          "non-finite loss at epoch " + std::to_string(epoch + 1) +
              " (diverged or poisoned inputs)");
    report.final_loss = epoch_loss;
    report.epochs_run = epoch + 1;
    g_epochs_total.add();
    g_epoch_hist.observe(epoch_sw.seconds());
    epoch_span.set_arg("loss", epoch_loss);
    if (epoch % 25 == 0)
      log_debug("gnn epoch %zu loss %.6f", epoch, epoch_loss);
    if (cfg.patience > 0) {
      if (epoch_loss < best_loss - kMinDelta) {
        best_loss = epoch_loss;
        stall = 0;
      } else if (++stall >= cfg.patience) {
        break;
      }
    }
  }

  // Aggregate training confusion at threshold 0.5.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const GraphSample& s = samples[i];
    const auto probs = model.predict(s.graph, s.features, ws[i]);
    const Confusion c = confusion_matrix(probs, s.labels, s.mask);
    report.train_confusion.tp += c.tp;
    report.train_confusion.fp += c.fp;
    report.train_confusion.tn += c.tn;
    report.train_confusion.fn += c.fn;
  }
  report.seconds = sw.seconds();
  obs::gauge("gnn.final_loss").set(report.final_loss);
  obs::gauge("gnn.epochs_run").set(static_cast<double>(report.epochs_run));
  train_span.set_arg("epochs", static_cast<double>(report.epochs_run));
  return report;
}

}  // namespace tmm
