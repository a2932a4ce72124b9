#include <gtest/gtest.h>

#include <cmath>

#include "moo/exhaustive.h"
#include "moo/mogd.h"
#include "test_problems.h"

namespace udao {
namespace {

using testing_problems::ConvexProblem;
using testing_problems::UnitSpace2;

MogdConfig FastConfig() {
  MogdConfig cfg;
  cfg.multistart = 4;
  cfg.max_iters = 150;
  return cfg;
}

TEST(MogdTest, MinimizeFindsGlobalMinimum) {
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  // F1 = x0 + x1 minimized at (0,0) with value 0.
  CoResult r1 = solver.Minimize(problem, 0);
  EXPECT_NEAR(r1.target_value, 0.0, 1e-3);
  // F2 = (1-x0)^2 + x1 minimized at (1,0) with value 0.
  CoResult r2 = solver.Minimize(problem, 1);
  EXPECT_NEAR(r2.target_value, 0.0, 1e-3);
}

TEST(MogdTest, MinimizeReturnsDecodedRaw) {
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  CoResult r = solver.Minimize(problem, 0);
  EXPECT_EQ(r.raw.size(), 2u);
  EXPECT_TRUE(UnitSpace2().Validate(r.raw).ok());
}

TEST(MogdTest, SolveCoRespectsConstraints) {
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  // Middle-point-probe style box: F1 in [0.4, 0.6], F2 in [0.0, 0.5].
  CoProblem co;
  co.target = 0;
  co.lower = {0.4, 0.0};
  co.upper = {0.6, 0.5};
  auto result = solver.SolveCo(problem, co);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->objectives[0], 0.4 - 1e-4);
  EXPECT_LE(result->objectives[0], 0.6 + 1e-4);
  EXPECT_GE(result->objectives[1], -1e-4);
  EXPECT_LE(result->objectives[1], 0.5 + 1e-4);
  // The constrained optimum of F1 is at its lower bound 0.4 (frontier point).
  EXPECT_NEAR(result->target_value, 0.4, 0.02);
}

TEST(MogdTest, SolveCoDetectsInfeasibleBox) {
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  // Frontier is F2 = (1-F1)^2 >= (1-0.2)^2 = 0.64 when F1 <= 0.2; demanding
  // F2 <= 0.1 simultaneously is impossible.
  CoProblem co;
  co.target = 0;
  co.lower = {0.0, 0.0};
  co.upper = {0.2, 0.1};
  auto result = solver.SolveCo(problem, co);
  EXPECT_FALSE(result.has_value());
}

TEST(MogdTest, SolveCoHonorsLinearConstraints) {
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  CoProblem co;
  co.target = 1;
  co.lower = {0.0, 0.0};
  co.upper = {1.0, 1.5};
  // Linear constraint: F1 >= 0.5, i.e. -F1 <= -0.5.
  co.linear.push_back({{-1.0, 0.0}, -0.5});
  auto result = solver.SolveCo(problem, co);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->objectives[0], 0.5 - 1e-4);
  // min F2 given F1 >= 0.5 is (1-1)^2 = 0 at x0=1.
  EXPECT_NEAR(result->target_value, 0.0, 0.02);
}

TEST(MogdTest, BatchMatchesSequentialResults) {
  MooProblem problem = ConvexProblem();
  ThreadPool pool(4);
  MogdConfig cfg = FastConfig();
  cfg.pool = &pool;
  MogdSolver solver(cfg);
  std::vector<CoProblem> problems;
  for (int i = 0; i < 6; ++i) {
    CoProblem co;
    co.target = 0;
    co.lower = {i * 0.15, 0.0};
    co.upper = {i * 0.15 + 0.15, 1.2};
    problems.push_back(co);
  }
  auto batch = solver.SolveBatch(problem, problems);
  ASSERT_EQ(batch.size(), problems.size());
  MogdConfig seq_cfg = cfg;
  seq_cfg.pool = nullptr;
  MogdSolver seq(seq_cfg);
  auto sequential = seq.SolveBatch(problem, problems);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].has_value(), sequential[i].has_value()) << i;
    if (batch[i].has_value()) {
      EXPECT_NEAR(batch[i]->target_value, sequential[i]->target_value, 1e-9)
          << i;
    }
  }
}

TEST(MogdTest, UncertaintyAlphaMakesValuesConservative) {
  // A model with constant stddev 0.2.
  class Noisy : public ObjectiveModel {
   public:
    void PredictBatch(const Matrix& x, Vector* out) const override {
      out->resize(x.rows());
      for (int i = 0; i < x.rows(); ++i) (*out)[i] = x(i, 0);
    }
    void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                     Vector* stddev) const override {
      PredictBatch(x, mean);
      stddev->assign(x.rows(), 0.2);
    }
    void GradientBatch(const Matrix& x, Matrix* grads,
                       Vector* values) const override {
      grads->Resize(x.rows(), 2);
      for (int i = 0; i < x.rows(); ++i) {
        (*grads)(i, 0) = 1.0;
        (*grads)(i, 1) = 0.0;
      }
      if (values != nullptr) PredictBatch(x, values);
    }
    int input_dim() const override { return 2; }
    std::string Name() const override { return "noisy"; }
  };
  auto noisy = std::make_shared<Noisy>();
  auto other = std::make_shared<CallableModel>(
      "o", 2, [](const Vector& x) { return 1.0 - x[0]; });
  MooProblem problem(&UnitSpace2(), {ObjectiveSpec{"noisy", noisy},
                                     ObjectiveSpec{"o", other}});
  MogdConfig cfg = FastConfig();
  cfg.alpha = 1.0;
  MogdSolver solver(cfg);
  CoProblem co;
  co.target = 0;
  co.lower = {0.0, 0.0};
  co.upper = {1.5, 1.5};
  auto result = solver.SolveCo(problem, co);
  ASSERT_TRUE(result.has_value());
  // Reported objective includes +alpha*std = +0.2.
  EXPECT_NEAR(result->objectives[0] - result->x[0], 0.2, 1e-6);
}

TEST(MogdTest, MaximizationObjectiveIsNegatedInternally) {
  auto up = std::make_shared<CallableModel>(
      "up", 2, [](const Vector& x) { return x[0]; });
  MooProblem problem(&UnitSpace2(),
                     {ObjectiveSpec{"up", up, /*minimize=*/false}});
  MogdSolver solver(FastConfig());
  CoResult r = solver.Minimize(problem, 0);
  // Minimizing -x0 drives x0 to 1.
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(problem.ToNatural(0, r.target_value), 1.0, 1e-3);
}

TEST(MogdTest, DeterministicForFixedSeed) {
  MooProblem problem = ConvexProblem();
  MogdConfig cfg = FastConfig();
  cfg.seed = 123;
  MogdSolver a(cfg);
  MogdSolver b(cfg);
  CoProblem co;
  co.target = 0;
  co.lower = {0.2, 0.0};
  co.upper = {0.8, 0.8};
  auto ra = a.SolveCo(problem, co);
  auto rb = b.SolveCo(problem, co);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->x, rb->x);
  EXPECT_DOUBLE_EQ(ra->target_value, rb->target_value);
}

TEST(MogdTest, EmptyBatchReturnsEmpty) {
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  EXPECT_TRUE(solver.SolveBatch(problem, {}).empty());
}

// --------------------------------------------------------- Exhaustive

TEST(ExhaustiveTest, MinimizeAgreesWithMogd) {
  MooProblem problem = ConvexProblem();
  ExhaustiveSolver ex(20000);
  MogdSolver gd(FastConfig());
  for (int target = 0; target < 2; ++target) {
    const double ve = ex.Minimize(problem, target).target_value;
    const double vg = gd.Minimize(problem, target).target_value;
    EXPECT_NEAR(ve, vg, 0.02) << "target " << target;
  }
}

TEST(ExhaustiveTest, SolveCoAgreesWithMogdOnFeasibleBox) {
  MooProblem problem = ConvexProblem();
  ExhaustiveSolver ex(20000);
  MogdSolver gd(FastConfig());
  CoProblem co;
  co.target = 0;
  co.lower = {0.3, 0.0};
  co.upper = {0.7, 0.6};
  auto re = ex.SolveCo(problem, co);
  auto rg = gd.SolveCo(problem, co);
  ASSERT_TRUE(re.has_value());
  ASSERT_TRUE(rg.has_value());
  EXPECT_NEAR(re->target_value, rg->target_value, 0.03);
}

TEST(ExhaustiveTest, FrontierIsMutuallyNonDominated) {
  MooProblem problem = ConvexProblem();
  ExhaustiveSolver ex(2000);
  auto frontier = ex.Frontier(problem);
  EXPECT_GT(frontier.size(), 5u);
  EXPECT_TRUE(MutuallyNonDominated(frontier));
}

// Property: MOGD never reports an infeasible solution as feasible.
class MogdFeasibilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MogdFeasibilityProperty, ReportedSolutionsSatisfyBounds) {
  Rng rng(GetParam());
  MooProblem problem = ConvexProblem();
  MogdSolver solver(FastConfig());
  for (int trial = 0; trial < 5; ++trial) {
    CoProblem co;
    co.target = rng.UniformInt(0, 1);
    const double l0 = rng.Uniform(0, 0.8);
    const double l1 = rng.Uniform(0, 0.8);
    co.lower = {l0, l1};
    co.upper = {l0 + rng.Uniform(0.1, 0.6), l1 + rng.Uniform(0.1, 0.6)};
    auto result = solver.SolveCo(problem, co);
    if (!result.has_value()) continue;
    for (int j = 0; j < 2; ++j) {
      EXPECT_GE(result->objectives[j], co.lower[j] - 1e-4);
      EXPECT_LE(result->objectives[j], co.upper[j] + 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MogdFeasibilityProperty,
                         ::testing::Range(70, 78));

}  // namespace
}  // namespace udao
