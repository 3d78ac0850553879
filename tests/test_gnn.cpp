#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>

#include "fault/fault.hpp"
#include "gnn/features.hpp"
#include "gnn/gemm.hpp"
#include "gnn/metrics.hpp"
#include "gnn/trainer.hpp"
#include "macro/ilm.hpp"
#include "sensitivity/training_data.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

GnnGraph ring_graph(std::size_t n) {
  GnnGraph g;
  g.num_nodes = n;
  g.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) g.offsets[v + 1] = (v + 1) * 2;
  g.neighbors.resize(2 * n);
  for (std::size_t v = 0; v < n; ++v) {
    g.neighbors[2 * v] = static_cast<std::uint32_t>((v + n - 1) % n);
    g.neighbors[2 * v + 1] = static_cast<std::uint32_t>((v + 1) % n);
  }
  return g;
}

TEST(Tensor, MatmulAgainstManual) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int k = 1;
  for (auto& v : a.data()) v = static_cast<float>(k++);
  for (auto& v : b.data()) v = static_cast<float>(k++);
  Matrix c(2, 2);
  matmul(a, b, c);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_FLOAT_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_FLOAT_EQ(c(0, 1), 1 * 8 + 2 * 10 + 3 * 12);
  EXPECT_FLOAT_EQ(c(1, 0), 4 * 7 + 5 * 9 + 6 * 11);
  EXPECT_FLOAT_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(Tensor, TransposedMatmulsConsistent) {
  Rng rng(1);
  Matrix a(4, 3);
  Matrix b(4, 5);
  for (auto& v : a.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b.data()) v = static_cast<float>(rng.uniform(-1, 1));
  Matrix atb(3, 5);
  matmul_at_b(a, b, atb);
  // Compare against explicit transpose.
  Matrix at(3, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  Matrix ref(3, 5);
  matmul(at, b, ref);
  for (std::size_t i = 0; i < atb.size(); ++i)
    EXPECT_NEAR(atb.data()[i], ref.data()[i], 1e-5);
  // a * b^T, lane by lane over the transposed b, adds each element in
  // the order of a plain dot product: the same bits.
  Matrix c(5, 3);
  for (auto& v : c.data()) v = static_cast<float>(rng.uniform(-1, 1));
  Matrix bt(3, 4);
  Matrix abt(5, 4);
  matmul_a_bt(c, a, bt, abt);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      float dot = 0.0f;
      for (std::size_t p = 0; p < 3; ++p) dot += c(i, p) * a(j, p);
      EXPECT_EQ(abt(i, j), dot);
    }
  }
  // Bias gradient: the column sums of b add onto the row in ascending
  // row order, so they match that loop bit for bit.
  Matrix grad_row(1, 5, 1.0f);
  add_column_sums(grad_row, b);
  for (std::size_t j = 0; j < 5; ++j) {
    float want = 1.0f;
    for (std::size_t i = 0; i < 4; ++i) want += b(i, j);
    EXPECT_EQ(grad_row(0, j), want);
  }
}

TEST(Tensor, SigmoidStable) {
  EXPECT_NEAR(sigmoidf(0.0f), 0.5f, 1e-6);
  EXPECT_NEAR(sigmoidf(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(sigmoidf(-100.0f), 0.0f, 1e-6);
  EXPECT_GT(sigmoidf(-100.0f), 0.0f - 1e-12);
}

TEST(Tensor, ReluForwardBackward) {
  Matrix x(1, 4);
  x(0, 0) = -1;
  x(0, 1) = 2;
  x(0, 2) = 0;
  x(0, 3) = 5;
  relu_forward(x);
  EXPECT_FLOAT_EQ(x(0, 0), 0);
  EXPECT_FLOAT_EQ(x(0, 1), 2);
  EXPECT_FLOAT_EQ(x(0, 3), 5);
  Matrix g(1, 4, 1.0f);
  g(0, 2) = -1.0f;
  relu_backward(g, x);
  EXPECT_FLOAT_EQ(g(0, 0), 0);
  EXPECT_FLOAT_EQ(g(0, 1), 1);
  EXPECT_FLOAT_EQ(g(0, 2), 0);
  EXPECT_FLOAT_EQ(g(0, 3), 1);
  // The gate multiplies: a negative gradient behind a closed unit
  // keeps its sign bit, as it did with a stored 0/1 mask.
  EXPECT_TRUE(std::signbit(g(0, 2)));
}

TEST(Aggregate, MeanOverNeighbors) {
  const GnnGraph g = ring_graph(4);
  Matrix x(4, 1);
  for (std::size_t v = 0; v < 4; ++v) x(v, 0) = static_cast<float>(v);
  Matrix out(4, 1);
  mean_aggregate(g, x, out);
  EXPECT_FLOAT_EQ(out(0, 0), (3 + 1) / 2.0f);
  EXPECT_FLOAT_EQ(out(1, 0), (0 + 2) / 2.0f);
  EXPECT_FLOAT_EQ(out(2, 0), (1 + 3) / 2.0f);
  EXPECT_FLOAT_EQ(out(3, 0), (2 + 0) / 2.0f);
}

/// Numerical gradient check of the whole model.
TEST(GradCheck, ModelGradientsMatchFiniteDifferences) {
  GnnModelConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.seed = 12345;
  GnnModel model(cfg);
  const GnnGraph g = ring_graph(6);
  Rng rng(3);
  Matrix x(6, 3);
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> labels{1, 0, 1, 0, 0, 1};
  std::vector<unsigned char> mask(6, 1);

  GnnWorkspace ws = model.workspace(6, true);
  auto loss_fn = [&]() {
    model.forward(g, x, ws);
    return bce_with_logits(ws.head.z, labels, mask, 2.0f, ws.head.dz);
  };

  // Analytic gradients.
  loss_fn();
  model.backward(g, x, ws);
  for (Param* p : model.params()) p->zero_grad();
  model.accumulate(ws);

  // Finite differences cross ReLU kinks at finite epsilon, so individual
  // elements may disagree; a real backprop bug breaks nearly all of
  // them. Require a large majority to match tightly.
  int checked = 0;
  int matched = 0;
  for (Param* p : model.params()) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.size() / 5);
    for (std::size_t i = 0; i < p->value.size(); i += stride) {
      const float orig = p->value.data()[i];
      const float analytic = p->grad.data()[i];
      const float eps = 1e-3f;
      p->value.data()[i] = orig + eps;
      const double lp = loss_fn();
      p->value.data()[i] = orig - eps;
      const double lm = loss_fn();
      p->value.data()[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      if (std::fabs(analytic - numeric) <=
          2e-3 + 0.05 * std::fabs(numeric))
        ++matched;
      ++checked;
    }
  }
  EXPECT_GE(checked, 15);
  EXPECT_GE(matched, checked * 8 / 10)
      << matched << " of " << checked << " gradient elements matched";
}

TEST(Trainer, LearnsSeparableNodeLabels) {
  // Label = (feature0 > 0): trivially separable; training must push
  // accuracy near 1.
  const GnnGraph g = ring_graph(40);
  Rng rng(9);
  GraphSample s;
  s.graph = g;
  s.features = Matrix(40, 2);
  s.labels.resize(40);
  s.mask.assign(40, 1);
  for (std::size_t v = 0; v < 40; ++v) {
    const double f = rng.uniform(-1, 1);
    s.features(v, 0) = static_cast<float>(f);
    s.features(v, 1) = static_cast<float>(rng.uniform(-1, 1));
    s.labels[v] = f > 0 ? 1.0f : 0.0f;
  }
  GnnModelConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 8;
  cfg.num_layers = 1;
  GnnModel model(cfg);
  TrainConfig tc;
  tc.epochs = 400;
  tc.patience = 0;
  const std::vector<GraphSample> samples{s};
  const TrainReport rep = train_model(model, samples, tc);
  EXPECT_LT(rep.final_loss, 0.4);
  EXPECT_GT(rep.train_confusion.accuracy(), 0.85);
}

TEST(Trainer, PosWeightBalancesRareClass) {
  // 1 positive among 20: weighted #neg/#pos, the positive must not be
  // drowned (recall > 0 after training).
  const GnnGraph g = ring_graph(20);
  GraphSample s;
  s.graph = g;
  s.features = Matrix(20, 2);
  s.labels.assign(20, 0.0f);
  s.mask.assign(20, 1);
  for (std::size_t v = 0; v < 20; ++v)
    s.features(v, 0) = v == 7 ? 1.0f : -1.0f;
  s.labels[7] = 1.0f;
  GnnModelConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 6;
  cfg.num_layers = 1;
  GnnModel model(cfg);
  TrainConfig tc;
  tc.epochs = 300;
  tc.patience = 0;
  const std::vector<GraphSample> samples{s};
  const TrainReport rep = train_model(model, samples, tc);
  EXPECT_EQ(rep.train_confusion.fn, 0u);
}

TEST(Adam, ReducesQuadraticLoss) {
  Param p;
  p.init_zero(1, 1);
  p.value(0, 0) = 5.0f;
  Adam opt({&p}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    p.grad(0, 0) = 2.0f * (p.value(0, 0) - 1.0f);  // d/dx (x-1)^2
    opt.step();
  }
  EXPECT_NEAR(p.value(0, 0), 1.0f, 0.05f);
  EXPECT_EQ(opt.steps(), 300u);
}

TEST(Metrics, ConfusionAndScores) {
  const std::vector<float> probs{0.9f, 0.2f, 0.8f, 0.4f};
  const std::vector<float> labels{1, 0, 0, 1};
  const Confusion c = confusion_matrix(probs, labels);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(c.precision(), 0.5);
  EXPECT_DOUBLE_EQ(c.recall(), 0.5);
  EXPECT_DOUBLE_EQ(c.f1(), 0.5);
}

TEST(Metrics, MaskExcludesEntries) {
  const std::vector<float> probs{0.9f, 0.9f};
  const std::vector<float> labels{1, 0};
  const std::vector<unsigned char> mask{1, 0};
  const Confusion c = confusion_matrix(probs, labels, mask);
  EXPECT_EQ(c.total(), 1u);
  EXPECT_EQ(c.tp, 1u);
}

TEST(GnnModel, SaveLoadRoundTripPredictsIdentically) {
  GnnModelConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 5;
  cfg.num_layers = 2;
  GnnModel model(cfg);
  // The loader's size cap counts exactly the weights the model holds.
  std::size_t weights = 0;
  for (const Param* p : model.params()) weights += p->value.size();
  EXPECT_EQ(param_count(cfg), weights);
  const GnnGraph g = ring_graph(7);
  Rng rng(2);
  Matrix x(7, 4);
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1, 1));
  const auto before = model.predict(g, x);
  std::stringstream ss;
  model.save(ss);
  GnnModel loaded = GnnModel::load(ss);
  const auto after = loaded.predict(g, x);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(before[i], after[i], 1e-5);
}

TEST(GnnModelIo, SaveLeavesCallerStreamAlone) {
  GnnModelConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 5;
  const GnnModel model(cfg);
  std::ostringstream os;
  os.precision(3);
  os.setf(std::ios::scientific, std::ios::floatfield);
  const std::streamsize precision = os.precision();
  const std::ios::fmtflags flags = os.flags();
  model.save(os);
  EXPECT_EQ(os.precision(), precision);
  EXPECT_EQ(os.flags(), flags);
  // The weights ignore the caller's format: same bytes as a fresh stream.
  std::ostringstream fresh;
  model.save(fresh);
  EXPECT_EQ(os.str(), fresh.str());
}

/// A small model's .gnn text with its first weight replaced by `weight`.
std::string gnn_text_with_first_weight(const std::string& weight) {
  GnnModelConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 5;
  std::ostringstream os;
  GnnModel(cfg).save(os);
  std::string text = os.str();
  // Line 1 is the header, line 2 the first parameter's shape; the
  // first weight is the first token of line 3.
  const std::size_t line3 = text.find('\n', text.find('\n') + 1) + 1;
  text.replace(line3, text.find(' ', line3) - line3, weight);
  return text;
}

TEST(GnnModelIo, WeightBeyondFloatRangeIsAParseError) {
  std::istringstream is(gnn_text_with_first_weight("1e300"));
  try {
    static_cast<void>(GnnModel::load(is, "w.gnn"));
    FAIL() << "expected FlowError";
  } catch (const fault::FlowError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find("w.gnn:3"), std::string::npos) << what;
    EXPECT_NE(what.find("non-finite value '1e300'"), std::string::npos)
        << what;
  }
}

TEST(GnnModelIo, FloatMaxWeightLoads) {
  // FLT_MAX prints as 3.40282347e+38 at 9 digits, which reads back as a
  // double just above FLT_MAX; the float it rounds to is FLT_MAX itself,
  // so the weight must load.
  for (const char* text : {"3.40282347e+38", "-3.40282347e+38"}) {
    std::istringstream is(gnn_text_with_first_weight(text));
    const float w = GnnModel::load(is).params().front()->value.data()[0];
    EXPECT_EQ(std::fabs(w), std::numeric_limits<float>::max()) << text;
    EXPECT_EQ(w < 0, text[0] == '-') << text;
  }
}

// ---------------------------------------------------------------- golden

/// Two seeded designs labelled by the Fig. 8 flow, as Framework::train
/// builds its samples.
std::vector<GraphSample> golden_samples() {
  TrainingDataConfig data_cfg;
  data_cfg.ts.num_constraint_sets = 2;
  std::vector<GraphSample> out;
  for (const Design& d : {test::make_tiny_design("t0", 40),
                          test::make_tiny_design("t1", 41)}) {
    const IlmResult ilm = extract_ilm(build_timing_graph(d));
    GraphSample s;
    s.graph = GnnGraph::from_timing_graph(ilm.graph);
    s.features = extract_features(ilm.graph, true);
    s.labels = generate_training_data(ilm.graph, data_cfg).labels;
    s.mask.assign(ilm.graph.num_nodes(), 1);
    for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n)
      if (ilm.graph.node(n).dead) s.mask[n] = 0;
    out.push_back(std::move(s));
  }
  return out;
}

std::string saved(const GnnModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

// FNV-1a and length of the saved weights: a change to the init draw
// order, a kernel's accumulation order, the gradient reduction or the
// Adam update moves them. The thread count must not.
TEST(GnnGolden, TrainedWeights) {
  GnnModelConfig cfg;
  cfg.input_dim = kNumFeaturesWithCppr;
  const std::vector<GraphSample> samples = golden_samples();
  const auto trained = [&](LossKind loss, std::size_t threads) {
    GnnModel model(cfg);
    TrainConfig tc;
    tc.epochs = 20;
    tc.loss = loss;
    tc.threads = threads;
    static_cast<void>(train_model(model, samples, tc));
    return saved(model);
  };
  const auto expect_bytes = [](const std::string& text, std::uint64_t hash,
                               std::size_t bytes) {
    EXPECT_EQ(text.size(), bytes);
    EXPECT_EQ(test::fnv1a(text), hash);
  };
  expect_bytes(saved(GnnModel(cfg)), 16106141905165079343ull, 34044);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_bytes(trained(LossKind::kBinaryCrossEntropy, threads),
                 17888800682079501575ull, 34669);
    expect_bytes(trained(LossKind::kMeanSquaredError, threads),
                 5225497817754010591ull, 34707);
  }
}

/// `n` nodes on a path plus seeded chords, seeded features (some zero)
/// and {0,1} labels; `masked` hides every node from the loss.
GraphSample uneven_sample(std::size_t n, std::uint64_t seed, bool masked) {
  Rng rng(seed);
  GraphSample s;
  std::vector<std::vector<std::uint32_t>> adj(n);
  const auto link = [&](std::size_t u, std::size_t v) {
    adj[u].push_back(static_cast<std::uint32_t>(v));
    adj[v].push_back(static_cast<std::uint32_t>(u));
  };
  for (std::size_t v = 0; v + 1 < n; ++v) link(v, v + 1);
  for (std::size_t k = 0; k < n / 3; ++k)
    link(rng.below(n), rng.below(n));
  s.graph.num_nodes = n;
  s.graph.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    s.graph.offsets[v + 1] =
        s.graph.offsets[v] + static_cast<std::uint32_t>(adj[v].size());
    s.graph.neighbors.insert(s.graph.neighbors.end(), adj[v].begin(),
                             adj[v].end());
  }
  s.features = Matrix(n, 5);
  for (float& v : s.features.data())
    v = rng.chance(0.3) ? 0.0f : static_cast<float>(rng.uniform(-1, 1));
  s.labels.resize(n);
  for (float& y : s.labels) y = rng.chance(0.3) ? 1.0f : 0.0f;
  s.mask.assign(n, masked ? 0 : 1);
  return s;
}

// Six samples of uneven size, one fully masked: every thread count
// trains the same bytes and reports the same loss, epochs and
// confusion as one thread.
TEST(GnnParallel, ThreadInvariant) {
  std::vector<GraphSample> samples;
  const std::size_t sizes[] = {120, 7, 310, 45, 1, 64};
  for (std::size_t i = 0; i < 6; ++i)
    samples.push_back(uneven_sample(sizes[i], 100 + i, i == 3));
  GnnModelConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_dim = 12;
  for (const LossKind loss :
       {LossKind::kBinaryCrossEntropy, LossKind::kMeanSquaredError}) {
    std::string want_bytes;
    TrainReport want;
    for (const std::size_t threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      GnnModel model(cfg);
      TrainConfig tc;
      tc.epochs = 30;
      tc.loss = loss;
      tc.threads = threads;
      const TrainReport rep = train_model(model, samples, tc);
      if (threads == 1) {
        want_bytes = saved(model);
        want = rep;
        EXPECT_EQ(rep.epochs_run, 30u);
        continue;
      }
      EXPECT_EQ(saved(model), want_bytes);
      EXPECT_EQ(rep.final_loss, want.final_loss);
      EXPECT_EQ(rep.epochs_run, want.epochs_run);
      EXPECT_EQ(rep.train_confusion.tp, want.train_confusion.tp);
      EXPECT_EQ(rep.train_confusion.fp, want.train_confusion.fp);
      EXPECT_EQ(rep.train_confusion.tn, want.train_confusion.tn);
      EXPECT_EQ(rep.train_confusion.fn, want.train_confusion.fn);
    }
  }
}

// A sample that does not fit the model is refused before any pass
// runs, with a kConfig error naming the sample.
TEST(GnnParallel, MismatchedSampleIsAConfigError) {
  GnnModelConfig cfg;
  cfg.input_dim = 5;
  const auto refused = [&](const GraphSample& bad) {
    std::vector<GraphSample> samples{uneven_sample(20, 1, false), bad};
    GnnModel model(cfg);
    const std::string before = saved(model);
    TrainConfig tc;
    tc.threads = 2;
    try {
      static_cast<void>(train_model(model, samples, tc));
    } catch (const fault::FlowError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kConfig);
      EXPECT_NE(std::string(e.what()).find("sample 1"), std::string::npos)
          << e.what();
      EXPECT_EQ(saved(model), before);  // no epoch ran
      return true;
    }
    return false;
  };
  GraphSample s = uneven_sample(30, 2, false);
  s.features = Matrix(30, 4);  // one feature short
  EXPECT_TRUE(refused(s));
  s = uneven_sample(30, 2, false);
  s.features = Matrix(29, 5);  // one node short
  EXPECT_TRUE(refused(s));
  s = uneven_sample(30, 2, false);
  s.labels.pop_back();
  EXPECT_TRUE(refused(s));
  s = uneven_sample(30, 2, false);
  s.mask.push_back(1);
  EXPECT_TRUE(refused(s));
  s = uneven_sample(30, 2, false);
  s.mask.clear();  // no mask: every node counts
  EXPECT_FALSE(refused(s));
  // Inference checks the same shape.
  const GraphSample ok = uneven_sample(30, 2, false);
  EXPECT_THROW(static_cast<void>(GnnModel(cfg).predict(ok.graph,
                                                       Matrix(30, 9))),
               fault::FlowError);
}

// ---------------------------------------------------------------- kernels

// The three matmul loops as they were before the tiled GEMM body
// replaced them: the oracle for its bits.
void naive_matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  out.fill(0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(p, j);
    }
  }
}

void naive_matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  out.fill(0.0f);
  for (std::size_t p = 0; p < a.rows(); ++p) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float av = a(p, i);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(p, j);
    }
  }
}

void naive_matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  out.fill(0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t p = 0; p < a.cols(); ++p)
      for (std::size_t j = 0; j < b.rows(); ++j)
        out(i, j) += a(i, p) * b(j, p);
}

/// Seeded entries, about a fifth +0 or -0, with a sprinkle of
/// denormals (and products that round into them) and, when
/// `non_finite`, of NaN and +-inf.
Matrix special_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                      bool non_finite) {
  constexpr float kSpecials[] = {
      std::numeric_limits<float>::denorm_min(),
      -3.0e-39f,
      1.5e-38f,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
  };
  const std::size_t specials = non_finite ? std::size(kSpecials) : 3;
  Matrix m(rows, cols);
  for (float& v : m.data()) {
    const double u = rng.uniform();
    if (u < 0.1)
      v = 0.0f;
    else if (u < 0.2)
      v = -0.0f;
    else if (u < 0.23)
      v = kSpecials[rng.below(specials)];
    else
      v = static_cast<float>(rng.uniform(-2, 2));
  }
  return m;
}

/// Index of the first element whose bits differ, or size() if none. A
/// NaN matches any NaN: IEEE 754 leaves open which operand's NaN an
/// operation returns and x86 returns the first, so when two NaNs of
/// opposite sign meet, the result follows the operand order the
/// compiler picks for a commutative multiply or add. The tiled body
/// and the old loops differ in exactly that.
std::size_t first_bit_mismatch(const Matrix& got, const Matrix& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float gv = got.data()[i];
    const float wv = want.data()[i];
    std::uint32_t g = 0;
    std::uint32_t w = 0;
    std::memcpy(&g, &gv, sizeof g);
    std::memcpy(&w, &wv, sizeof w);
    if (g != w && !(std::isnan(gv) && std::isnan(wv))) return i;
  }
  return got.size();
}

using GemmBody = void (*)(const gemm::Args&);

// Runs `body` in each kernel's layout on seeded shapes and compares
// every output bit with the old loops; the dispatched public kernels
// must match them too. The A operand always holds NaN and +-inf; the B
// operand once does (the body keeps the zero skip) and once does not
// (it drops it).
void expect_old_bits(GemmBody body) {
  Rng rng(2024);
  const auto check = [&](std::size_t m, std::size_t n, std::size_t k,
                         bool non_finite_b) {
    SCOPED_TRACE("m " + std::to_string(m) + " n " + std::to_string(n) +
                 " k " + std::to_string(k) +
                 (non_finite_b ? ", non-finite b" : ", finite b"));
    const Matrix x = special_matrix(m, k, rng, true);   // a of a*b, a*b^T
    const Matrix xt = special_matrix(k, m, rng, true);  // a of a^T*b
    const Matrix b = special_matrix(k, n, rng, non_finite_b);
    const Matrix bn = special_matrix(n, k, rng, non_finite_b);  // a*b^T
    Matrix want(m, n);
    Matrix got(m, n, 7.0f);  // every element must be overwritten
    Matrix pub(m, n, 7.0f);
    Matrix bt(k, n);

    naive_matmul(x, b, want);
    body(gemm::for_matmul(x, b, got));
    matmul(x, b, pub);
    EXPECT_EQ(first_bit_mismatch(got, want), want.size()) << "a * b";
    EXPECT_EQ(first_bit_mismatch(pub, want), want.size()) << "a * b";

    naive_matmul_at_b(xt, b, want);
    got.fill(7.0f);
    pub.fill(7.0f);
    body(gemm::for_matmul_at_b(xt, b, got));
    matmul_at_b(xt, b, pub);
    EXPECT_EQ(first_bit_mismatch(got, want), want.size()) << "a^T * b";
    EXPECT_EQ(first_bit_mismatch(pub, want), want.size()) << "a^T * b";

    naive_matmul_a_bt(x, bn, want);
    matmul_a_bt(x, bn, bt, pub);
    got.fill(7.0f);
    body(gemm::for_matmul_a_bt(x, bt, got));
    EXPECT_EQ(first_bit_mismatch(got, want), want.size()) << "a * b^T";
    EXPECT_EQ(first_bit_mismatch(pub, want), want.size()) << "a * b^T";
  };
  for (const std::size_t m : {1, 2, 7, 10})
    for (const std::size_t n : {1, 9, 31, 32, 33, 40})
      for (const std::size_t k : {0, 1, 9, 32})
        for (const bool non_finite_b : {false, true})
          check(m, n, k, non_finite_b);
}

TEST(GnnKernels, BaselineBodyMatchesOldLoops) {
  expect_old_bits(&gemm::run_baseline);
}

TEST(GnnKernels, Avx2BodyMatchesOldLoops) {
  if (!gemm::has_avx2()) GTEST_SKIP() << "this CPU has no AVX2";
  expect_old_bits(&gemm::run_avx2);
}

// Layer 1's neighbor mean, fixed once per workspace, leaves the
// forward pass's bits alone; a fresh workspace still aggregates.
TEST(GnnModel, FixedInputMeanMatchesAggregation) {
  const GraphSample s = uneven_sample(50, 7, false);
  GnnModelConfig cfg;
  cfg.input_dim = 5;
  const GnnModel model(cfg);
  GnnWorkspace fixed = model.workspace(50, true);
  model.fix_input(s.graph, s.features, fixed);
  EXPECT_TRUE(fixed.sage[0].hn_fixed);
  Matrix mean(50, 5);
  mean_aggregate(s.graph, s.features, mean);
  EXPECT_EQ(first_bit_mismatch(fixed.sage[0].hn, mean), mean.size());
  const std::vector<float> want = model.predict(s.graph, s.features);
  for (int pass = 0; pass < 2; ++pass)
    EXPECT_EQ(model.predict(s.graph, s.features, fixed), want);
}

TEST(GnnGraph, FromTimingGraphIsUndirected) {
  const Design d = test::make_buffer_chain(2);
  const TimingGraph tg = build_timing_graph(d);
  const GnnGraph g = GnnGraph::from_timing_graph(tg);
  ASSERT_EQ(g.num_nodes, tg.num_nodes());
  // Each delay arc contributes one neighbor entry on each side.
  EXPECT_EQ(g.neighbors.size(), 2 * tg.num_live_arcs());
  // in0 has exactly one neighbor (the first buffer input).
  EXPECT_EQ(g.degree(d.primary_inputs()[0]), 1u);
}

// -------------------------------------------------------------- features

TEST(Features, NamesMatchTable1) {
  const auto basic = feature_names(false);
  ASSERT_EQ(basic.size(), kNumBasicFeatures);
  EXPECT_EQ(basic[0], "level_from_PI");
  EXPECT_EQ(basic[7], "is_ff_clock");
  const auto cppr = feature_names(true);
  ASSERT_EQ(cppr.size(), kNumFeaturesWithCppr);
  EXPECT_EQ(cppr.back(), "is_CPPR");
}

TEST(Features, ChainLevelsAndFlags) {
  const Design d = test::make_buffer_chain(3);
  const TimingGraph g = build_timing_graph(d);
  const Matrix x = extract_features(g, true);
  const NodeId in = d.primary_inputs()[0];
  const NodeId out = d.primary_outputs()[0];
  EXPECT_FLOAT_EQ(x(in, 0), 0.0f);                    // level_from_PI
  EXPECT_FLOAT_EQ(x(out, 1), 0.0f);                   // level_to_PO
  EXPECT_FLOAT_EQ(x(in, 4), 1.0f);                    // is_first_stage
  EXPECT_FLOAT_EQ(x(in, 6), 0.0f);                    // no clock network
  const auto lp = levels_from_pi(g);
  EXPECT_EQ(lp[in], 0);
  EXPECT_GT(lp[out], 3);
  const auto lo = levels_to_po(g);
  EXPECT_EQ(lo[out], 0);
  EXPECT_EQ(lo[in], lp[out]);
}

TEST(Features, ClockAndCpprFlags) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  const Matrix x = extract_features(g, true);
  std::size_t clock_pins = 0;
  std::size_t cppr_pins = 0;
  std::size_t ff_clock_pins = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (x(n, 6) > 0.5f) ++clock_pins;
    if (x(n, 8) > 0.5f) ++cppr_pins;
    if (x(n, 7) > 0.5f) {
      ++ff_clock_pins;
      EXPECT_TRUE(g.node(n).is_ff_clock);
    }
  }
  EXPECT_GT(clock_pins, 0u);
  EXPECT_GT(cppr_pins, 0u);
  EXPECT_GT(ff_clock_pins, 0u);
  EXPECT_LT(cppr_pins, clock_pins);
}

TEST(Features, LastStageMarksPoDrivers) {
  const Design d = test::make_buffer_chain(2);
  const TimingGraph g = build_timing_graph(d);
  const Matrix x = extract_features(g, false);
  // The last buffer's output pin drives the PO net.
  const NodeId out = d.primary_outputs()[0];
  const NodeId driver = g.arc(g.fanin(out)[0]).from;
  EXPECT_FLOAT_EQ(x(driver, 3), 1.0f);
  EXPECT_FLOAT_EQ(x(out, 2), 1.0f);  // PO is fanout of a last-stage pin
}

TEST(Features, ValuesAreNormalized) {
  const Design d = test::make_small_design();
  const TimingGraph g = build_timing_graph(d);
  const Matrix x = extract_features(g, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x.data()[i], 0.0f);
    EXPECT_LE(x.data()[i], 1.0f);
  }
}

}  // namespace
}  // namespace tmm
