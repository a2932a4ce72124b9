// End-to-end integration tests: trace generation -> model training -> MOO ->
// recommendation, over the simulated Spark substrate.
#include <gtest/gtest.h>

#include "common/random.h"
#include "spark/engine.h"
#include "spark/streaming.h"
#include "tuning/udao.h"
#include "workload/streambench.h"
#include "workload/tpcxbb.h"
#include "workload/trace_gen.h"

namespace udao {
namespace {

SolverOptions FastOptions() {
  SolverOptions options;
  options.pf.mogd.multistart = 4;
  options.pf.mogd.max_iters = 80;
  options.solver_threads = 4;
  options.frontier_points = 10;
  return options;
}

ModelServerConfig TinyDnn() {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kDnn;
  cfg.dnn.hidden = {24, 24};
  cfg.dnn.train.epochs = 120;
  return cfg;
}

class UdaoEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ModelServer>(TinyDnn());
    engine_ = std::make_unique<SparkEngine>();
    Rng rng(7);
    workload_ = std::make_unique<BatchWorkload>(MakeTpcxbbWorkload(9));
    auto configs = SampleConfigs(BatchParamSpace(), 48,
                                 SamplingStrategy::kLatinHypercube, &rng);
    CollectBatchTraces(*engine_, *workload_, configs, server_.get());
  }

  UdaoRequest LatencyCostRequest() {
    UdaoRequest request;
    request.workload_id = workload_->id;
    request.space = &BatchParamSpace();
    request.objectives = {{.name = objectives::kLatency},
                          {.name = objectives::kCostCores}};
    return request;
  }

  std::unique_ptr<ModelServer> server_;
  std::unique_ptr<SparkEngine> engine_;
  std::unique_ptr<BatchWorkload> workload_;
};

TEST_F(UdaoEndToEndTest, OptimizeProducesValidRecommendation) {
  Udao optimizer(server_.get(), FastOptions());
  auto rec = optimizer.Optimize(LatencyCostRequest());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(BatchParamSpace().Validate(rec->conf_raw).ok());
  EXPECT_GE(rec->frontier.frontier.size(), 3u);
  EXPECT_TRUE(MutuallyNonDominated(rec->frontier.frontier));
  EXPECT_EQ(rec->predicted_objectives.size(), 2u);
  EXPECT_GT(rec->predicted_objectives[0], 0.0);  // latency
}

TEST_F(UdaoEndToEndTest, RecommendationImprovesOnDefaults) {
  Udao optimizer(server_.get(), FastOptions());
  UdaoRequest request = LatencyCostRequest();
  request.preference_weights = {0.9, 0.1};
  auto rec = optimizer.Optimize(request);
  ASSERT_TRUE(rec.ok());
  // Measured on the simulator, the recommendation with strong latency
  // preference must beat the default configuration's latency.
  const double tuned = engine_->Latency(workload_->flow, rec->conf_raw);
  const double defaults =
      engine_->Latency(workload_->flow, BatchParamSpace().Defaults());
  EXPECT_LT(tuned, defaults);
}

TEST_F(UdaoEndToEndTest, WeightsShiftTheRecommendation) {
  Udao optimizer(server_.get(), FastOptions());
  UdaoRequest latency_heavy = LatencyCostRequest();
  latency_heavy.preference_weights = {0.9, 0.1};
  UdaoRequest cost_heavy = LatencyCostRequest();
  cost_heavy.preference_weights = {0.1, 0.9};
  auto r_lat = optimizer.Optimize(latency_heavy);
  auto r_cost = optimizer.Optimize(cost_heavy);
  ASSERT_TRUE(r_lat.ok());
  ASSERT_TRUE(r_cost.ok());
  // The latency-heavy recommendation should use at least as many cores.
  EXPECT_GE(SparkConf::FromRaw(r_lat->conf_raw).TotalCores(),
            SparkConf::FromRaw(r_cost->conf_raw).TotalCores());
  // And predict lower or equal latency.
  EXPECT_LE(r_lat->predicted_objectives[0],
            r_cost->predicted_objectives[0] + 1e-9);
}

TEST_F(UdaoEndToEndTest, ValueConstraintsAreRespected) {
  Udao optimizer(server_.get(), FastOptions());
  UdaoRequest request = LatencyCostRequest();
  request.objectives[1].upper = 24.0;  // at most 24 cores
  auto rec = optimizer.Optimize(request);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_LE(rec->predicted_objectives[1], 24.0 + 1e-6);
}

TEST_F(UdaoEndToEndTest, UnknownWorkloadIsNotFound) {
  Udao optimizer(server_.get(), FastOptions());
  UdaoRequest request = LatencyCostRequest();
  request.workload_id = "never-seen";
  auto rec = optimizer.Optimize(request);
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kNotFound);
}

TEST_F(UdaoEndToEndTest, InvalidRequestsAreRejected) {
  Udao optimizer(server_.get(), FastOptions());
  UdaoRequest request = LatencyCostRequest();
  request.space = nullptr;
  EXPECT_FALSE(optimizer.Optimize(request).ok());

  request = LatencyCostRequest();
  request.objectives.clear();
  EXPECT_FALSE(optimizer.Optimize(request).ok());

  request = LatencyCostRequest();
  request.preference_weights = {1.0};  // arity mismatch
  EXPECT_FALSE(optimizer.Optimize(request).ok());
}

TEST(UdaoStreamingTest, LatencyThroughputTradeoffEndToEnd) {
  ModelServer server(TinyDnn());
  StreamEngine engine;
  Rng rng(11);
  StreamWorkload w = MakeStreamWorkload(54);
  auto configs = SampleConfigs(StreamParamSpace(), 48,
                               SamplingStrategy::kLatinHypercube, &rng);
  CollectStreamTraces(engine, w, configs, &server);

  SolverOptions options = FastOptions();
  options.workload_aware = false;
  Udao optimizer(&server, options);
  UdaoRequest request;
  request.workload_id = w.id;
  request.space = &StreamParamSpace();
  request.objectives = {{.name = objectives::kLatency},
                        {.name = objectives::kThroughput, .minimize = false}};
  auto rec = optimizer.Optimize(request);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(StreamParamSpace().Validate(rec->conf_raw).ok());
  // Throughput prediction comes back in natural (maximize) orientation.
  EXPECT_GT(rec->predicted_objectives[1], 0.0);
}

TEST(UdaoRetrainTest, RecommendationsTrackModelUpdates) {
  // After a large trace update the server retrains and the optimizer uses
  // the new model transparently.
  ModelServerConfig cfg = TinyDnn();
  cfg.retrain_threshold = 24;
  ModelServer server(cfg);
  SparkEngine engine;
  Rng rng(13);
  BatchWorkload w = MakeTpcxbbWorkload(5);
  auto configs = SampleConfigs(BatchParamSpace(), 24,
                               SamplingStrategy::kLatinHypercube, &rng);
  CollectBatchTraces(engine, w, configs, &server);
  Udao optimizer(&server, FastOptions());
  UdaoRequest request;
  request.workload_id = w.id;
  request.space = &BatchParamSpace();
  request.objectives = {{.name = objectives::kLatency},
                        {.name = objectives::kCostCores}};
  auto r1 = optimizer.Optimize(request);
  ASSERT_TRUE(r1.ok());
  // Large update: retrain must kick in and optimization still succeeds.
  auto more = SampleConfigs(BatchParamSpace(), 30,
                            SamplingStrategy::kLatinHypercube, &rng);
  CollectBatchTraces(engine, w, more, &server);
  auto r2 = optimizer.Optimize(request);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(BatchParamSpace().Validate(r2->conf_raw).ok());
}

}  // namespace
}  // namespace udao
