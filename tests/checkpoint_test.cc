#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "model/checkpoint.h"

namespace udao {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("udao_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

std::shared_ptr<MlpModel> TrainSmallMlp(Rng* rng, bool log_targets = false) {
  Matrix x(40, 2);
  Vector y(40);
  for (int i = 0; i < 40; ++i) {
    x(i, 0) = rng->Uniform();
    x(i, 1) = rng->Uniform();
    y[i] = 3.0 + 2.0 * x(i, 0) - x(i, 1);
  }
  MlpModelConfig cfg;
  cfg.hidden = {8};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 100;
  cfg.log_transform_targets = log_targets;
  auto model = MlpModel::Fit(x, y, cfg, rng);
  EXPECT_TRUE(model.ok());
  return *model;
}

TEST_F(CheckpointTest, MlpRoundTripsExactly) {
  Rng rng(1);
  auto model = TrainSmallMlp(&rng);
  ASSERT_TRUE(SaveMlpModel(*model, Path("m.ckpt")).ok());
  auto loaded = LoadMlpModel(Path("m.ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (double a : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Vector p = {a, 1.0 - a};
    EXPECT_DOUBLE_EQ(model->Predict(p), (*loaded)->Predict(p));
    Vector g1 = model->InputGradient(p);
    Vector g2 = (*loaded)->InputGradient(p);
    EXPECT_DOUBLE_EQ(g1[0], g2[0]);
    EXPECT_DOUBLE_EQ(g1[1], g2[1]);
  }
}

TEST_F(CheckpointTest, MlpLogTransformSurvivesRoundTrip) {
  Rng rng(2);
  auto model = TrainSmallMlp(&rng, /*log_targets=*/true);
  ASSERT_TRUE(SaveMlpModel(*model, Path("m.ckpt")).ok());
  auto loaded = LoadMlpModel(Path("m.ckpt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(model->Predict({0.3, 0.7}), (*loaded)->Predict({0.3, 0.7}));
}

TEST_F(CheckpointTest, GpRoundTripsPredictions) {
  Rng rng(3);
  Matrix x(30, 2);
  Vector y(30);
  for (int i = 0; i < 30; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = std::sin(3 * x(i, 0)) + x(i, 1);
  }
  GpConfig cfg;
  cfg.hyper_opt_steps = 20;
  auto gp = GpModel::Fit(x, y, cfg);
  ASSERT_TRUE(gp.ok());
  ASSERT_TRUE(SaveGpModel(**gp, Path("g.ckpt")).ok());
  auto loaded = LoadGpModel(Path("g.ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (double a : {0.1, 0.5, 0.9}) {
    double m1 = 0.0;
    double s1 = 0.0;
    double m2 = 0.0;
    double s2 = 0.0;
    (*gp)->PredictWithUncertainty({a, a}, &m1, &s1);
    (*loaded)->PredictWithUncertainty({a, a}, &m2, &s2);
    EXPECT_NEAR(m1, m2, 1e-9);
    EXPECT_NEAR(s1, s2, 1e-9);
  }
}

TEST_F(CheckpointTest, LoadRejectsGarbage) {
  {
    std::ofstream out(Path("junk"));
    out << "not a checkpoint at all";
  }
  EXPECT_FALSE(LoadMlpModel(Path("junk")).ok());
  EXPECT_FALSE(LoadGpModel(Path("junk")).ok());
  EXPECT_FALSE(LoadMlpModel(Path("missing")).ok());
}

TEST_F(CheckpointTest, DeserializeRejectsTruncatedStream) {
  Rng rng(4);
  auto model = TrainSmallMlp(&rng);
  std::ostringstream full;
  model->SerializeTo(full);
  const std::string text = full.str();
  std::istringstream cut(text.substr(0, text.size() / 2));
  EXPECT_FALSE(MlpModel::Deserialize(cut).ok());
}

// Checkpoints are outside input: a malformed header must come back as an
// InvalidArgument Status, never abort the process or load a wrong network.
// Each text below is a 1-1-1 network (4 parameters) with one header field
// broken.
StatusCode DeserializeCode(const std::string& text) {
  std::istringstream in(text);
  StatusOr<std::shared_ptr<MlpModel>> loaded = MlpModel::Deserialize(in);
  return loaded.ok() ? StatusCode::kOk : loaded.status().code();
}

TEST_F(CheckpointTest, DeserializeRejectsZeroWidthLayer) {
  EXPECT_EQ(DeserializeCode("udao-mlp-v1\n3 1 0 1\n0 0 0.1 32 0\n0 1\n"
                            "1\n0.5\n"),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, DeserializeRejectsUnknownActivation) {
  // Code 7 is neither kRelu (0) nor kTanh (1).
  EXPECT_EQ(DeserializeCode("udao-mlp-v1\n3 1 1 1\n7 0 0.1 32 0\n0 1\n"
                            "4\n1 0 -1 0\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCode("udao-mlp-v1\n3 1 1 1\n0 0 0.1 32 0\n0 1\n"
                            "4\n1 0 -1 0\n"),
            StatusCode::kOk);
}

TEST_F(CheckpointTest, DeserializeRejectsWeightCountMismatch) {
  EXPECT_EQ(DeserializeCode("udao-mlp-v1\n3 1 1 1\n0 0 0.1 32 0\n0 1\n"
                            "5\n1 0 -1 0 2\n"),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, ModelServerDataRoundTrips) {
  ModelServer original;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    Vector conf = {rng.Uniform(), rng.Uniform()};
    original.Ingest("w1", "latency", conf, 10.0 + conf[0]);
    original.Ingest("w1", "cost", conf, conf[1]);
    original.Ingest("w/2", "latency", conf, 5.0);
  }
  ASSERT_TRUE(SaveModelServerData(original, {"w1", "w/2"},
                                  {"latency", "cost"}, dir_.string())
                  .ok());
  ModelServer restored;
  ASSERT_TRUE(LoadModelServerData(dir_.string(), &restored).ok());
  EXPECT_EQ(restored.NumTraces("w1", "latency"), 12);
  EXPECT_EQ(restored.NumTraces("w1", "cost"), 12);
  EXPECT_EQ(restored.NumTraces("w/2", "latency"), 12);
  auto data = restored.GetData("w1", "latency");
  ASSERT_TRUE(data.ok());
  auto orig = original.GetData("w1", "latency");
  for (size_t i = 0; i < data->y.size(); ++i) {
    EXPECT_DOUBLE_EQ(data->y[i], orig->y[i]);
  }
}

TEST_F(CheckpointTest, LoadFromMissingDirectoryFails) {
  ModelServer server;
  EXPECT_FALSE(LoadModelServerData(Path("nope"), &server).ok());
}

}  // namespace
}  // namespace udao
