// Locks in the solver's thread-count-invariance claim: with identical seeds,
// Udao::Optimize returns bitwise-identical Pareto sets and recommendations
// whether the PF-AP fan-out runs on 2 threads or 8 (MogdConfig documents
// that "threading never changes solutions"), and reruns are bitwise
// reproducible. Any drift here means a worker wrote into shared solver
// state or consumed a shared RNG out of order.
#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/random.h"
#include "nn/kernels.h"
#include "spark/engine.h"
#include "tuning/udao.h"
#include "workload/tpcxbb.h"
#include "workload/trace_gen.h"

namespace udao {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ModelServerConfig cfg;
    cfg.kind = ModelKind::kGp;
    cfg.gp.hyper_opt_steps = 10;
    server_ = std::make_unique<ModelServer>(cfg);
    SparkEngine engine;
    workload_ = std::make_unique<BatchWorkload>(MakeTpcxbbWorkload(9));
    Rng rng(7);
    auto configs = SampleConfigs(BatchParamSpace(), 24,
                                 SamplingStrategy::kLatinHypercube, &rng);
    CollectBatchTraces(engine, *workload_, configs, server_.get());
  }

  UdaoRequest Request() {
    UdaoRequest request;
    request.workload_id = workload_->id;
    request.space = &BatchParamSpace();
    request.objectives = {{.name = objectives::kLatency},
                          {.name = objectives::kCostCores}};
    return request;
  }

  UdaoRecommendation OptimizeWithThreads(int solver_threads) {
    SolverOptions options;
    options.pf.mogd.multistart = 4;
    options.pf.mogd.max_iters = 60;
    options.solver_threads = solver_threads;
    options.frontier_points = 10;
    Udao optimizer(server_.get(), options);
    auto rec = optimizer.Optimize(Request());
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    return *rec;
  }

  static void ExpectBitwiseEqual(const UdaoRecommendation& a,
                                 const UdaoRecommendation& b) {
    // Vector operator== is element-wise exact double equality, so these are
    // bitwise comparisons (no result here is ever NaN or -0.0 vs 0.0).
    ASSERT_EQ(a.frontier.frontier.size(), b.frontier.frontier.size());
    for (size_t i = 0; i < a.frontier.frontier.size(); ++i) {
      EXPECT_EQ(a.frontier.frontier[i].conf_encoded,
                b.frontier.frontier[i].conf_encoded)
          << "frontier point " << i;
      EXPECT_EQ(a.frontier.frontier[i].objectives,
                b.frontier.frontier[i].objectives)
          << "frontier point " << i;
    }
    EXPECT_EQ(a.frontier.utopia, b.frontier.utopia);
    EXPECT_EQ(a.frontier.nadir, b.frontier.nadir);
    EXPECT_EQ(a.conf_encoded, b.conf_encoded);
    EXPECT_EQ(a.conf_raw, b.conf_raw);
    EXPECT_EQ(a.predicted_objectives, b.predicted_objectives);
  }

  std::unique_ptr<ModelServer> server_;
  std::unique_ptr<BatchWorkload> workload_;
};

TEST_F(DeterminismTest, ParetoSetIdenticalAcross2And8Threads) {
  const UdaoRecommendation two = OptimizeWithThreads(2);
  const UdaoRecommendation eight = OptimizeWithThreads(8);
  ASSERT_GE(two.frontier.frontier.size(), 3u);
  ExpectBitwiseEqual(two, eight);
}

TEST_F(DeterminismTest, RerunWithSameSeedsIsBitwiseIdentical) {
  const UdaoRecommendation first = OptimizeWithThreads(4);
  const UdaoRecommendation second = OptimizeWithThreads(4);
  ExpectBitwiseEqual(first, second);
}

TEST_F(DeterminismTest, ThreadInvarianceHoldsWithinEachKernelBackend) {
  // Thread-count invariance is a per-backend property: within one kernel
  // dispatch mode every dense primitive is deterministic, so 2-thread and
  // 8-thread solves must stay bitwise identical whether the scalar or the
  // AVX2 kernels are active. (Cross-backend results may differ in the last
  // bits; kernel_parity_test pins that tolerance.)
  std::vector<kernels::Backend> backends{kernels::Backend::kScalar};
  if (kernels::CpuSupportsAvx2()) {
    backends.push_back(kernels::Backend::kAvx2);
  }
  for (const kernels::Backend backend : backends) {
    kernels::ScopedBackendForTesting scoped(backend);
    const UdaoRecommendation two = OptimizeWithThreads(2);
    const UdaoRecommendation eight = OptimizeWithThreads(8);
    ASSERT_GE(two.frontier.frontier.size(), 3u);
    ExpectBitwiseEqual(two, eight);
  }
}

TEST_F(DeterminismTest, GenerousDeadlineDoesNotPerturbResults) {
  // The deadline plumbing must be pure overhead until it fires: a request
  // carrying a far-future deadline and a live (never-cancelled) token takes
  // exactly the same path through PF/MOGD as one with the default tokens,
  // and returns the bitwise-identical recommendation, untagged.
  const UdaoRecommendation plain = OptimizeWithThreads(4);

  SolverOptions options;
  options.pf.mogd.multistart = 4;
  options.pf.mogd.max_iters = 60;
  options.solver_threads = 4;
  options.frontier_points = 10;
  Udao optimizer(server_.get(), options);
  UdaoRequest request = Request();
  CancellationSource source;  // stays un-cancelled for the whole solve
  request.options.deadline = Deadline::AfterMs(1e9);
  request.options.cancel = source.token();
  auto budgeted = optimizer.Optimize(request);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_FALSE(budgeted->degraded);
  ExpectBitwiseEqual(plain, *budgeted);
}

}  // namespace
}  // namespace udao
