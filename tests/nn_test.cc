#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/matrix.h"
#include "common/random.h"
#include "common/stats.h"
#include "mlp_reference.h"
#include "model/mlp_model.h"
#include "nn/adam.h"
#include "nn/mlp.h"
#include "nn/train.h"

namespace udao {
namespace {

using testing_reference::ReferenceForwardBackward;
using testing_reference::ReferenceInputGradient;
using testing_reference::ReferencePredictWithUncertainty;
using testing_reference::ReferenceTrainMlp;

MlpConfig SmallConfig(Activation act = Activation::kTanh) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 8, 8, 1};
  cfg.activation = act;
  cfg.l2 = 0.0;
  return cfg;
}

Matrix OneRow(const Vector& x) { return Matrix::FromRows({x}); }

double Predict(const Mlp& mlp, const Vector& x) {
  Vector out;
  mlp.PredictBatch(OneRow(x), &out);
  return out[0];
}

Vector InputGradient(const Mlp& mlp, const Vector& x) {
  Matrix grad;
  mlp.InputGradientBatch(OneRow(x), &grad);
  return grad.Row(0);
}

void PredictWithUncertainty(const Mlp& mlp, const Vector& x, int samples,
                            Rng* rng, double* mean, double* stddev) {
  std::vector<Rng> rngs = {*rng};
  Vector means;
  Vector stddevs;
  mlp.PredictWithUncertaintyBatch(OneRow(x), samples, &rngs, &means,
                                  &stddevs);
  *rng = rngs[0];
  *mean = means[0];
  *stddev = stddevs[0];
}

// ---------------------------------------------------------------- Mlp

TEST(MlpTest, ForwardShapeAndDeterminism) {
  Rng rng(1);
  Mlp mlp(SmallConfig(), &rng);
  Matrix x = Matrix::FromRows({{0.1, 0.5, 0.9}, {0.3, 0.2, 0.7}});
  Vector y1;
  Vector y2;
  mlp.PredictBatch(x, &y1);
  mlp.PredictBatch(x, &y2);
  ASSERT_EQ(y1.size(), 2u);
  EXPECT_EQ(y1, y2);
}

TEST(MlpTest, SnapshotRestoreRoundTrips) {
  Rng rng(2);
  Mlp a(SmallConfig(), &rng);
  Mlp b(SmallConfig(), &rng);
  Vector x = {0.2, 0.4, 0.6};
  EXPECT_NE(Predict(a, x), Predict(b, x));
  b.Restore(a.Snapshot());
  EXPECT_DOUBLE_EQ(Predict(a, x), Predict(b, x));
}

// Number of doubles whose bit patterns differ between `a` and `b`.
int DifferingBits(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  int differing = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      ++differing;
    }
  }
  return differing;
}

// The batched passes reproduce the per-sample loops of mlp_reference.h bit
// for bit in the active kernel backend: training's loss and every weight
// and bias gradient, input gradients, and MC-dropout mean and stddev. Both
// activations; 12- and 128-wide inputs (the latter takes the unrolled
// 128-wide dot in the first layer, the 128-wide hidden layer in all).
TEST(MlpTest, BatchedPassesMatchPerSampleReferenceBitwise) {
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    for (const int width : {12, 128}) {
      SCOPED_TRACE(::testing::Message()
                   << (act == Activation::kRelu ? "relu" : "tanh") << " "
                   << width << "-wide input");
      MlpConfig cfg;
      cfg.layer_sizes = {width, 128, 64, 1};
      cfg.activation = act;
      cfg.l2 = 1e-3;
      cfg.dropout = 0.2;
      Rng rng(31 + width);
      Mlp mlp(cfg, &rng);
      for (Mlp::Layer& layer : mlp.layers()) {
        for (double& b : layer.b) b = rng.Gaussian(0.0, 0.3);
      }
      const int rows = 32;
      Matrix x(rows, width);
      Vector y(rows);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < width; ++c) x(r, c) = rng.Uniform();
        y[r] = rng.Gaussian(0.0, 1.0);
      }

      std::vector<Mlp::LayerGrad> ref_grads = mlp.ZeroGrads();
      const double ref_loss = ReferenceForwardBackward(mlp, x, y, &ref_grads);
      std::vector<Mlp::LayerGrad> grads = mlp.ZeroGrads();
      const double loss = mlp.ForwardBackward(x, y, &grads);
      int differing = DifferingBits({loss}, {ref_loss});
      for (size_t l = 0; l < grads.size(); ++l) {
        differing += DifferingBits(grads[l].dw.data(), ref_grads[l].dw.data());
        differing += DifferingBits(grads[l].db, ref_grads[l].db);
      }
      EXPECT_EQ(differing, 0) << "training loss and weight/bias gradients";

      Matrix input_grads;
      mlp.InputGradientBatch(x, &input_grads);
      differing = 0;
      for (int r = 0; r < rows; ++r) {
        differing += DifferingBits(input_grads.Row(r),
                                   ReferenceInputGradient(mlp, x.Row(r)));
      }
      EXPECT_EQ(differing, 0) << "input gradients";

      const int mc_rows = 5;
      const int samples = 16;
      Matrix mc_x(mc_rows, width);
      std::copy(x.data().begin(), x.data().begin() + mc_rows * width,
                mc_x.data().begin());
      std::vector<Rng> rngs;
      for (int r = 0; r < mc_rows; ++r) rngs.emplace_back(100 + r);
      Vector mean;
      Vector stddev;
      mlp.PredictWithUncertaintyBatch(mc_x, samples, &rngs, &mean, &stddev);
      Vector ref_mean(mc_rows);
      Vector ref_stddev(mc_rows);
      for (int r = 0; r < mc_rows; ++r) {
        Rng mc(100 + r);
        ReferencePredictWithUncertainty(mlp, mc_x.Row(r), samples, &mc,
                                        &ref_mean[r], &ref_stddev[r]);
      }
      EXPECT_EQ(DifferingBits(mean, ref_mean) +
                    DifferingBits(stddev, ref_stddev),
                0)
          << "MC-dropout mean and stddev";
    }
  }
}

// Central finite differences validate the analytic input gradient for both
// activations across random points -- the property MOGD depends on.
class InputGradientProperty
    : public ::testing::TestWithParam<std::tuple<int, Activation>> {};

TEST_P(InputGradientProperty, MatchesFiniteDifferences) {
  const auto [seed, act] = GetParam();
  Rng rng(seed);
  Mlp mlp(SmallConfig(act), &rng);
  const double h = 1e-6;
  for (int trial = 0; trial < 10; ++trial) {
    Vector x = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    Vector grad = InputGradient(mlp, x);
    ASSERT_EQ(grad.size(), x.size());
    for (size_t d = 0; d < x.size(); ++d) {
      Vector xp = x;
      Vector xm = x;
      xp[d] += h;
      xm[d] -= h;
      const double fd = (Predict(mlp, xp) - Predict(mlp, xm)) / (2 * h);
      EXPECT_NEAR(grad[d], fd, 1e-4) << "dim " << d << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndActivations, InputGradientProperty,
    ::testing::Combine(::testing::Values(10, 11, 12, 13),
                       ::testing::Values(Activation::kTanh,
                                         Activation::kRelu)));

// Weight gradients also validated against finite differences on a tiny batch.
TEST(MlpTest, WeightGradientsMatchFiniteDifferences) {
  Rng rng(3);
  Mlp mlp(SmallConfig(Activation::kTanh), &rng);
  Matrix x = Matrix::FromRows({{0.1, 0.2, 0.3}, {0.9, 0.8, 0.7}});
  Vector y = {1.0, -1.0};

  std::vector<Mlp::LayerGrad> grads = mlp.ZeroGrads();
  mlp.ForwardBackward(x, y, &grads);
  Vector flat;
  for (const auto& g : grads) {
    flat.insert(flat.end(), g.dw.data().begin(), g.dw.data().end());
    flat.insert(flat.end(), g.db.begin(), g.db.end());
  }

  auto loss_at = [&](const Vector& params) {
    Mlp probe(SmallConfig(Activation::kTanh), &rng);
    probe.Restore(params);
    Vector out;
    probe.PredictBatch(x, &out);
    double loss = 0.0;
    for (int n = 0; n < x.rows(); ++n) {
      const double err = out[n] - y[n];
      loss += err * err;
    }
    return loss / x.rows();
  };

  Vector params = mlp.Snapshot();
  const double h = 1e-6;
  // Spot-check a spread of parameter indices.
  for (size_t i = 0; i < params.size(); i += 7) {
    Vector pp = params;
    Vector pm = params;
    pp[i] += h;
    pm[i] -= h;
    const double fd = (loss_at(pp) - loss_at(pm)) / (2 * h);
    EXPECT_NEAR(flat[i], fd, 1e-4) << "param " << i;
  }
}

TEST(MlpTest, L2PenaltyIncreasesLossAndGradients) {
  Rng rng(4);
  MlpConfig cfg = SmallConfig();
  Mlp plain(cfg, &rng);
  MlpConfig cfg_l2 = cfg;
  cfg_l2.l2 = 0.1;
  Rng rng2(4);
  Mlp reg(cfg_l2, &rng2);  // same seed -> same weights
  Matrix x = Matrix::FromRows({{0.5, 0.5, 0.5}});
  Vector y = {0.0};
  auto g1 = plain.ZeroGrads();
  auto g2 = reg.ZeroGrads();
  const double l_plain = plain.ForwardBackward(x, y, &g1);
  const double l_reg = reg.ForwardBackward(x, y, &g2);
  EXPECT_GT(l_reg, l_plain);
}

TEST(MlpTest, DropoutUncertaintyIsNonNegativeAndMeanReasonable) {
  Rng rng(5);
  MlpConfig cfg = SmallConfig();
  cfg.dropout = 0.2;
  Mlp mlp(cfg, &rng);
  Vector x = {0.3, 0.3, 0.3};
  double mean = 0.0;
  double stddev = -1.0;
  Rng mc(99);
  PredictWithUncertainty(mlp, x, 200, &mc, &mean, &stddev);
  EXPECT_GE(stddev, 0.0);
  // MC-dropout mean should be in the ballpark of the deterministic output.
  EXPECT_NEAR(mean, Predict(mlp, x), 5.0 * (stddev + 0.05));
}

// A row's MC-dropout estimate depends only on its point and its generator,
// not on the rows batched with it, so a batch equals 1-row calls bitwise:
// the recommendation re-ranker batches a whole frontier on exactly this
// contract, for both activations.
TEST(MlpTest, BatchedUncertaintyMatchesScalarBitwise) {
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    Rng rng(7);
    MlpConfig cfg = SmallConfig(act);
    cfg.dropout = 0.2;
    Mlp mlp(cfg, &rng);
    const int rows = 5;
    const int samples = 16;
    Matrix x(rows, 3);
    Rng points(11);
    for (int r = 0; r < rows; ++r) {
      for (int d = 0; d < 3; ++d) x(r, d) = points.Uniform();
    }
    std::vector<Rng> rngs;
    for (int r = 0; r < rows; ++r) rngs.emplace_back(100 + r);
    Vector mean;
    Vector stddev;
    mlp.PredictWithUncertaintyBatch(x, samples, &rngs, &mean, &stddev);
    ASSERT_EQ(mean.size(), static_cast<size_t>(rows));
    ASSERT_EQ(stddev.size(), static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      Rng mc(100 + r);
      double m = 0.0;
      double s = 0.0;
      PredictWithUncertainty(mlp, x.Row(r), samples, &mc, &m, &s);
      EXPECT_EQ(mean[r], m) << "row " << r;
      EXPECT_EQ(stddev[r], s) << "row " << r;
    }
  }
}

TEST(MlpTest, ZeroDropoutGivesZeroUncertainty) {
  Rng rng(6);
  MlpConfig cfg = SmallConfig();
  cfg.dropout = 0.0;
  Mlp mlp(cfg, &rng);
  double mean = 0.0;
  double stddev = -1.0;
  Rng mc(1);
  PredictWithUncertainty(mlp, {0.1, 0.2, 0.3}, 32, &mc, &mean, &stddev);
  EXPECT_DOUBLE_EQ(stddev, 0.0);
  EXPECT_DOUBLE_EQ(mean, Predict(mlp, {0.1, 0.2, 0.3}));
}

// ---------------------------------------------------------------- Adam

TEST(AdamTest, ConvergesOnQuadraticBowl) {
  // minimize f(p) = (p0-3)^2 + (p1+2)^2
  Vector p = {0.0, 0.0};
  Adam adam(2, AdamConfig{.learning_rate = 0.1});
  for (int i = 0; i < 2000; ++i) {
    Vector grad = {2 * (p[0] - 3), 2 * (p[1] + 2)};
    adam.Step(&p, grad);
  }
  EXPECT_NEAR(p[0], 3.0, 1e-3);
  EXPECT_NEAR(p[1], -2.0, 1e-3);
}

TEST(AdamTest, FirstStepHasMagnitudeNearLearningRate) {
  // Adam's bias correction makes the first step ~lr regardless of grad scale.
  Vector p = {0.0};
  Adam adam(1, AdamConfig{.learning_rate = 0.01});
  adam.Step(&p, {1234.5});
  EXPECT_NEAR(p[0], -0.01, 1e-5);
}

// ---------------------------------------------------------------- Training

TEST(TrainTest, LearnsLinearFunction) {
  Rng rng(7);
  MlpConfig cfg;
  cfg.layer_sizes = {2, 16, 1};
  cfg.activation = Activation::kTanh;
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  const int n = 128;
  Matrix x(n, 2);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = 0.5 * x(i, 0) - 0.3 * x(i, 1) + 0.1;
  }
  TrainConfig tc;
  tc.epochs = 300;
  tc.learning_rate = 5e-3;
  TrainResult result = TrainMlp(&mlp, x, y, tc, &rng);
  EXPECT_LT(result.best_loss, 1e-3);
  // Generalizes to a held-out point.
  EXPECT_NEAR(Predict(mlp, {0.5, 0.5}), 0.5 * 0.5 - 0.3 * 0.5 + 0.1, 0.05);
}

TEST(TrainTest, EarlyStoppingHaltsBeforeMaxEpochs) {
  Rng rng(8);
  MlpConfig cfg;
  cfg.layer_sizes = {1, 4, 1};
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  Matrix x = Matrix::FromRows({{0.0}, {1.0}});
  Vector y = {0.0, 0.0};  // trivially learnable
  TrainConfig tc;
  tc.epochs = 10000;
  tc.early_stop_patience = 5;
  TrainResult result = TrainMlp(&mlp, x, y, tc, &rng);
  EXPECT_LT(result.epochs_run, 10000);
}

TEST(TrainTest, FineTuningImprovesShiftedTarget) {
  Rng rng(9);
  MlpConfig cfg;
  cfg.layer_sizes = {1, 16, 1};
  cfg.activation = Activation::kTanh;
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  const int n = 64;
  Matrix x(n, 1);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = std::sin(3 * x(i, 0));
  }
  TrainConfig tc;
  tc.epochs = 200;
  TrainMlp(&mlp, x, y, tc, &rng);

  // Shift targets slightly; a short fine-tune should track the shift.
  Vector y2 = y;
  for (double& v : y2) v += 0.2;
  Vector pred;
  mlp.PredictBatch(x, &pred);
  double before = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = pred[i] - y2[i];
    before += e * e;
  }
  TrainConfig ft;
  ft.epochs = 100;
  ft.learning_rate = 1e-3;
  TrainResult result = TrainMlp(&mlp, x, y2, ft, &rng);
  EXPECT_LT(result.best_loss, before / n);
}

// Bits of a TrainResult, for bitwise comparison.
Vector ResultBits(const TrainResult& r) {
  return {r.final_loss, r.best_loss, static_cast<double>(r.epochs_run)};
}

// TrainMlp steps each layer in place; ReferenceTrainMlp flattens, steps the
// whole snapshot with a plain Adam loop and restores it. The final weights,
// the TrainResult and the generator state must match bit for bit. 37 rows
// in batches of 8 end in a short batch of 5; layer widths give the Adam
// kernel ranges with every n % 4 tail. With patience 3 the run must stop
// early, so the best-checkpoint restore is reached from both exits.
TEST(TrainTest, InPlaceTrainingMatchesFlattenedReferenceBitwise) {
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    for (const int patience : {0, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << (act == Activation::kRelu ? "relu" : "tanh")
                   << " patience " << patience);
      MlpConfig cfg;
      cfg.layer_sizes = {5, 17, 10, 1};
      cfg.activation = act;
      cfg.l2 = 1e-3;
      Rng init(41);
      Mlp mlp(cfg, &init);
      Mlp ref = mlp;
      const int n = 37;
      Matrix x(n, 5);
      Vector y(n);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < 5; ++c) x(r, c) = init.Uniform();
        y[r] = std::sin(3.0 * x(r, 0)) + x(r, 1) * x(r, 2);
      }
      TrainConfig tc;
      tc.epochs = 150;
      tc.batch_size = 8;
      tc.learning_rate = 0.05;
      tc.early_stop_patience = patience;
      Rng rng(43);
      Rng ref_rng(43);
      const TrainResult got = TrainMlp(&mlp, x, y, tc, &rng);
      const TrainResult want = ReferenceTrainMlp(&ref, x, y, tc, &ref_rng);
      if (patience > 0) {
        EXPECT_LT(want.epochs_run, tc.epochs) << "early stop not reached";
      } else {
        EXPECT_EQ(want.epochs_run, tc.epochs);
      }
      EXPECT_EQ(DifferingBits(mlp.Snapshot(), ref.Snapshot()), 0)
          << "weights and biases";
      EXPECT_EQ(DifferingBits(ResultBits(got), ResultBits(want)), 0)
          << "final loss " << got.final_loss << " vs " << want.final_loss
          << ", best loss " << got.best_loss << " vs " << want.best_loss
          << ", epochs " << got.epochs_run << " vs " << want.epochs_run;
      EXPECT_EQ(rng.engine()(), ref_rng.engine()()) << "generator state";
    }
  }
}

// MlpModel::Fit and FineTune train through TrainMlp: both must match the
// reference trainer on the same network, normalized log-space targets and
// generator, bit for bit (the served DNN's path).
TEST(TrainTest, MlpModelFitAndFineTuneMatchFlattenedReferenceBitwise) {
  MlpModelConfig cfg;
  cfg.hidden = {16, 9};
  cfg.log_transform_targets = true;
  cfg.l2 = 1e-4;
  cfg.train.epochs = 30;
  cfg.train.batch_size = 16;
  cfg.train.learning_rate = 5e-3;
  Rng data(47);
  auto make_data = [&](int rows, double scale, Matrix* x, Vector* y) {
    *x = Matrix(rows, 4);
    y->resize(rows);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < 4; ++c) (*x)(r, c) = data.Uniform();
      (*y)[r] = scale * std::exp((*x)(r, 0) - 0.5 * (*x)(r, 3));
    }
  };
  Matrix x;
  Vector y;
  make_data(44, 10.0, &x, &y);
  Rng rng(53);
  auto fitted = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(fitted.ok());
  std::shared_ptr<MlpModel> model = *fitted;

  // Fit's steps, spelled out: network, normalized log targets, training.
  Rng ref_rng(53);
  MlpConfig net;
  net.layer_sizes = {4, 16, 9, 1};
  net.activation = cfg.activation;
  net.l2 = cfg.l2;
  net.dropout = cfg.dropout;
  Mlp ref(net, &ref_rng);
  Vector t(y.size());
  for (size_t i = 0; i < y.size(); ++i) t[i] = std::log(std::max(1e-9, y[i]));
  const double y_mean = Mean(t);
  const double y_std = std::max(1e-9, StdDev(t));
  auto normalize = [&](const Vector& v) {
    Vector z(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      z[i] = (std::log(std::max(1e-9, v[i])) - y_mean) / y_std;
    }
    return z;
  };
  ReferenceTrainMlp(&ref, x, normalize(y), cfg.train, &ref_rng);
  EXPECT_EQ(DifferingBits(model->mlp().Snapshot(), ref.Snapshot()), 0)
      << "fitted weights";

  // FineTune: fewer epochs at a tenth of the learning rate, on new traces
  // (21 rows: one full batch and a short one).
  Matrix x2;
  Vector y2;
  make_data(21, 11.0, &x2, &y2);
  const TrainResult got = model->FineTune(x2, y2, 12, &rng);
  TrainConfig ft = cfg.train;
  ft.epochs = 12;
  ft.learning_rate = cfg.train.learning_rate * 0.1;
  const TrainResult want = ReferenceTrainMlp(&ref, x2, normalize(y2), ft,
                                             &ref_rng);
  EXPECT_EQ(DifferingBits(model->mlp().Snapshot(), ref.Snapshot()), 0)
      << "fine-tuned weights";
  EXPECT_EQ(DifferingBits(ResultBits(got), ResultBits(want)), 0);
  EXPECT_EQ(rng.engine()(), ref_rng.engine()()) << "generator state";
}

}  // namespace
}  // namespace udao
