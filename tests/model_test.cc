#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "model/analytic_models.h"
#include "model/mlp_model.h"
#include "model/model_server.h"
#include "model/objective_model.h"
#include "spark/conf.h"

namespace udao {
namespace {

// ------------------------------------------------------------ CallableModel

TEST(CallableModelTest, FiniteDifferenceFallbackGradient) {
  CallableModel m("quad", 2, [](const Vector& x) {
    return x[0] * x[0] + 3.0 * x[1];
  });
  Vector g = m.InputGradient({0.5, 0.2});
  EXPECT_NEAR(g[0], 1.0, 1e-6);
  EXPECT_NEAR(g[1], 3.0, 1e-6);
}

TEST(CallableModelTest, ExplicitGradientIsUsed) {
  CallableModel m(
      "lin", 1, [](const Vector& x) { return 2.0 * x[0]; },
      [](const Vector& x) { return Vector{42.0}; });
  EXPECT_DOUBLE_EQ(m.InputGradient({0.0})[0], 42.0);
}

// Mean x[0], stddev 2 * x[0]: a model with a native uncertainty notion.
class FakeUncertainModel : public ObjectiveModel {
 public:
  void PredictBatch(const Matrix& x, Vector* out) const override {
    out->resize(x.rows());
    for (int i = 0; i < x.rows(); ++i) (*out)[i] = x(i, 0);
  }
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override {
    PredictBatch(x, mean);
    stddev->resize(x.rows());
    for (int i = 0; i < x.rows(); ++i) (*stddev)[i] = 2.0 * x(i, 0);
  }
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values) const override {
    grads->Resize(x.rows(), 1);
    std::fill(grads->data().begin(), grads->data().end(), 1.0);
    if (values != nullptr) PredictBatch(x, values);
  }
  int input_dim() const override { return 1; }
  std::string Name() const override { return "fake"; }
};

// ------------------------------------------------------------ MlpModel

TEST(MlpModelTest, FitsAndGeneralizes) {
  Rng rng(1);
  const int n = 200;
  Matrix x(n, 2);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = 100.0 + 50.0 * x(i, 0) - 30.0 * x(i, 1);
  }
  MlpModelConfig cfg;
  cfg.hidden = {16, 16};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 300;
  cfg.train.learning_rate = 3e-3;
  auto model = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR((*model)->Predict({0.5, 0.5}), 110.0, 6.0);
}

TEST(MlpModelTest, InputGradientScalesWithTargetStd) {
  Rng rng(2);
  Matrix x(50, 1);
  Vector y(50);
  for (int i = 0; i < 50; ++i) {
    x(i, 0) = i / 50.0;
    y[i] = 1000.0 * x(i, 0);
  }
  MlpModelConfig cfg;
  cfg.hidden = {16};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 400;
  auto model = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(model.ok());
  // Around the middle, slope should approximate 1000 in original units.
  Vector g = (*model)->InputGradient({0.5});
  EXPECT_NEAR(g[0], 1000.0, 300.0);
}

TEST(MlpModelTest, UncertaintyIsDeterministicPerPoint) {
  Rng rng(3);
  Matrix x(20, 1);
  Vector y(20);
  for (int i = 0; i < 20; ++i) {
    x(i, 0) = i / 20.0;
    y[i] = x(i, 0);
  }
  MlpModelConfig cfg;
  cfg.hidden = {8};
  cfg.dropout = 0.3;
  cfg.train.epochs = 50;
  auto model = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(model.ok());
  double m1 = 0.0;
  double s1 = 0.0;
  double m2 = 0.0;
  double s2 = 0.0;
  (*model)->PredictWithUncertainty({0.4}, &m1, &s1);
  (*model)->PredictWithUncertainty({0.4}, &m2, &s2);
  EXPECT_DOUBLE_EQ(m1, m2);
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_GE(s1, 0.0);
}

TEST(MlpModelTest, FineTuneTracksShiftedTargets) {
  Rng rng(4);
  Matrix x(60, 1);
  Vector y(60);
  for (int i = 0; i < 60; ++i) {
    x(i, 0) = i / 60.0;
    y[i] = 10.0 * x(i, 0);
  }
  MlpModelConfig cfg;
  cfg.hidden = {16};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 300;
  auto model = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(model.ok());
  Vector y2 = y;
  for (double& v : y2) v += 3.0;
  double before = std::abs((*model)->Predict({0.5}) - (10.0 * 0.5 + 3.0));
  (*model)->FineTune(x, y2, 200, &rng);
  double after = std::abs((*model)->Predict({0.5}) - (10.0 * 0.5 + 3.0));
  EXPECT_LT(after, before);
}

TEST(MlpModelTest, LogTransformPredictsPositiveAndAccurate) {
  Rng rng(41);
  const int n = 150;
  Matrix x(n, 1);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = 5.0 * std::exp(-3.0 * x(i, 0));  // spans ~0.25 .. 5
  }
  MlpModelConfig cfg;
  cfg.hidden = {16};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 400;
  cfg.log_transform_targets = true;
  auto model = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(model.ok());
  for (double probe : {0.0, 0.3, 0.7, 1.0}) {
    const double pred = (*model)->Predict({probe});
    EXPECT_GT(pred, 0.0);
    EXPECT_NEAR(pred, 5.0 * std::exp(-3.0 * probe),
                0.3 * 5.0 * std::exp(-3.0 * probe) + 0.1);
  }
}

TEST(MlpModelTest, LogTransformGradientMatchesFiniteDifferences) {
  Rng rng(42);
  Matrix x(60, 2);
  Vector y(60);
  for (int i = 0; i < 60; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = std::exp(1.0 + x(i, 0) - 0.5 * x(i, 1));
  }
  MlpModelConfig cfg;
  cfg.hidden = {12};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 150;
  cfg.log_transform_targets = true;
  auto model = MlpModel::Fit(x, y, cfg, &rng);
  ASSERT_TRUE(model.ok());
  const double h = 1e-6;
  Vector p = {0.4, 0.6};
  Vector grad = (*model)->InputGradient(p);
  for (int d = 0; d < 2; ++d) {
    Vector pp = p;
    Vector pm = p;
    pp[d] += h;
    pm[d] -= h;
    const double fd = ((*model)->Predict(pp) - (*model)->Predict(pm)) / (2 * h);
    EXPECT_NEAR(grad[d], fd, 1e-3 * std::max(1.0, std::abs(fd)));
  }
}

// ----------------------------------------------------- NonNegativeModel

TEST(NonNegativeModelTest, FloorsNegativePredictions) {
  auto base = std::make_shared<CallableModel>(
      "lin", 1, [](const Vector& x) { return x[0] - 0.5; });
  NonNegativeModel floored(base);
  EXPECT_DOUBLE_EQ(floored.Predict({0.8}), 0.3);
  EXPECT_DOUBLE_EQ(floored.Predict({0.2}), 0.0);
  // Pseudo-gradient passes through so constraints can push back.
  EXPECT_NEAR(floored.InputGradient({0.2})[0], 1.0, 1e-6);
}

TEST(NonNegativeModelTest, UncertaintyMeanIsFloored) {
  auto base = std::make_shared<FakeUncertainModel>();
  NonNegativeModel floored(base);
  double mean = 0.0;
  double stddev = 0.0;
  floored.PredictWithUncertainty({-2.0}, &mean, &stddev);
  EXPECT_DOUBLE_EQ(mean, 0.0);
}

// ------------------------------------------------------------ Analytic

TEST(AnalyticModelsTest, LatencyDecreasesWithMoreCores) {
  auto model = MakeAnalyticBatchLatencyModel(AnalyticWorkload{});
  const ParamSpace& space = BatchParamSpace();
  Vector small = space.Encode(space.Defaults());
  Vector big = small;
  small[1] = 0.0;  // min executors
  small[2] = 0.2;
  big[1] = 1.0;    // max executors
  big[2] = 0.8;
  EXPECT_GT(model->Predict(small), model->Predict(big));
}

TEST(AnalyticModelsTest, CostCoresGradientIsExact) {
  auto model = MakeCostCoresModel();
  const ParamSpace& space = BatchParamSpace();
  Vector x = space.Encode(space.Defaults());
  Vector analytic = model->InputGradient(x);
  Vector fd = FiniteDifferenceGradient(*model, x);
  for (size_t d = 0; d < fd.size(); ++d) {
    EXPECT_NEAR(analytic[d], fd[d], 1e-5) << "dim " << d;
  }
}

TEST(AnalyticModelsTest, CpuHourIsLatencyTimesCores) {
  auto latency = MakeAnalyticBatchLatencyModel(AnalyticWorkload{});
  auto cores = MakeCostCoresModel();
  auto cpu_hour = MakeCpuHourModel(latency);
  const ParamSpace& space = BatchParamSpace();
  Vector x = space.Encode(space.Defaults());
  EXPECT_NEAR(cpu_hour->Predict(x),
              latency->Predict(x) * cores->Predict(x) / 3600.0, 1e-9);
}

TEST(AnalyticModelsTest, Fig3ModelsMatchPaperShape) {
  auto lat = MakeFig3LatencyModel();
  auto cost = MakeFig3CostModel();
  // Max resources: 12 execs x 2 cores = 24 cores -> latency ~ 100, cost ~ 24.
  EXPECT_NEAR(lat->Predict({1.0, 1.0}), 100.0, 5.0);
  EXPECT_NEAR(cost->Predict({1.0, 1.0}), 24.0, 1.0);
  // Min resources: 1 core -> latency ~ 2400.
  EXPECT_NEAR(lat->Predict({0.0, 0.0}), 2400.0, 120.0);
  EXPECT_NEAR(cost->Predict({0.0, 0.0}), 1.0, 0.7);
}

// ------------------------------------------------------------ ModelServer

TEST(ModelServerTest, NotFoundBeforeIngestion) {
  ModelServer server;
  EXPECT_FALSE(server.GetModel("w1", "latency").ok());
  EXPECT_FALSE(server.HasTraces("w1", "latency"));
  EXPECT_EQ(server.NumTraces("w1", "latency"), 0);
}

ModelServerConfig TinyDnnConfig() {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kDnn;
  cfg.dnn.hidden = {8};
  cfg.dnn.train.epochs = 30;
  return cfg;
}

TEST(ModelServerTest, TrainsOnFirstGet) {
  ModelServer server(TinyDnnConfig());
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    Vector conf = {rng.Uniform(), rng.Uniform()};
    server.Ingest("w1", "latency", conf, 10.0 + conf[0]);
  }
  auto model = server.GetModel("w1", "latency");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->input_dim(), 2);
  EXPECT_EQ(server.NumTraces("w1", "latency"), 20);
}

TEST(ModelServerTest, SmallUpdateKeepsModelIdentity) {
  ModelServer server(TinyDnnConfig());
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    Vector conf = {rng.Uniform(), rng.Uniform()};
    server.Ingest("w1", "latency", conf, conf[0]);
  }
  auto m1 = server.GetModel("w1", "latency");
  ASSERT_TRUE(m1.ok());
  // Fewer new traces than finetune_threshold: same object, untouched, and
  // the generation that versions it holds still.
  const uint64_t generation = server.Generation("w1");
  for (int i = 0; i < 3; ++i) {
    server.Ingest("w1", "latency", {0.5, 0.5}, 0.5);
  }
  auto m2 = server.GetModel("w1", "latency");
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m1->get(), m2->get());
  EXPECT_EQ(server.Generation("w1"), generation);
}

// The generation versions the models already served: it moves at the ingest
// that makes a served model due (and at each later one before the (re)train),
// never inside GetModel.
TEST(ModelServerTest, GenerationMovesOnlyWhenAServedModelIsDue) {
  const ModelServerConfig cfg = TinyDnnConfig();
  ModelServer server(cfg);
  Rng rng(9);
  auto ingest = [&server, &rng](const std::string& workload) {
    const Vector conf = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(server.Ingest(workload, "latency", conf, 1.0 + conf[0]).ok());
  };
  for (int i = 0; i < 20; ++i) ingest("w1");
  EXPECT_EQ(server.Generation("w1"), 0u);  // never served

  ASSERT_TRUE(server.GetModel("w1", "latency").ok());  // first train
  EXPECT_EQ(server.Generation("w1"), 0u);
  for (int i = 0; i < cfg.finetune_threshold - 1; ++i) ingest("w1");
  EXPECT_EQ(server.Generation("w1"), 0u);

  ingest("w1");  // crosses finetune_threshold
  EXPECT_EQ(server.Generation("w1"), 1u);
  ingest("w1");  // changes the pending fine-tune's data
  EXPECT_EQ(server.Generation("w1"), 2u);
  EXPECT_FALSE(server.Ingest("w1", "latency", {0.5}, 1.0).ok());
  EXPECT_EQ(server.Generation("w1"), 2u);

  ASSERT_TRUE(server.GetModel("w1", "latency").ok());  // fine-tunes
  EXPECT_EQ(server.Generation("w1"), 2u);
  ingest("w2");
  EXPECT_EQ(server.Generation("w1"), 2u);
}

TEST(ModelServerDeathTest, RejectsThresholdsBelowOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ModelServerConfig retrain;
  retrain.retrain_threshold = 0;
  EXPECT_DEATH(ModelServer server(retrain), "retrain_threshold >= 1");
  ModelServerConfig finetune;
  finetune.finetune_threshold = 0;
  EXPECT_DEATH(ModelServer server(finetune), "finetune_threshold >= 1");
}

TEST(ModelServerTest, LargeUpdateRetrains) {
  ModelServerConfig cfg = TinyDnnConfig();
  cfg.retrain_threshold = 10;
  ModelServer server(cfg);
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    server.Ingest("w1", "latency", {rng.Uniform(), rng.Uniform()}, 1.0);
  }
  auto m1 = server.GetModel("w1", "latency");
  ASSERT_TRUE(m1.ok());
  for (int i = 0; i < 12; ++i) {
    server.Ingest("w1", "latency", {rng.Uniform(), rng.Uniform()}, 2.0);
  }
  auto m2 = server.GetModel("w1", "latency");
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(m1->get(), m2->get());
}

TEST(ModelServerTest, GpKindTrainsGp) {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.hyper_opt_steps = 10;
  ModelServer server(cfg);
  Rng rng(8);
  for (int i = 0; i < 15; ++i) {
    Vector conf = {rng.Uniform()};
    server.Ingest("w", "latency", conf, std::sin(conf[0]));
  }
  auto model = server.GetModel("w", "latency");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->Name(), "gp");
}

TEST(ModelServerTest, MetricsAggregation) {
  ModelServer server;
  RuntimeMetrics m1;
  m1.latency_s = 10;
  RuntimeMetrics m2;
  m2.latency_s = 20;
  server.IngestMetrics("w1", m1);
  server.IngestMetrics("w1", m2);
  auto mean = server.MeanMetrics("w1");
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ((*mean)[0], 15.0);
  EXPECT_FALSE(server.MeanMetrics("nope").ok());
  EXPECT_EQ(server.WorkloadsWithMetrics(),
            std::vector<std::string>{"w1"});
}

}  // namespace
}  // namespace udao
