// Equivalence of the batched model-inference surface with the scalar one:
// PredictBatch / GradientBatch / PredictWithUncertaintyBatch must reproduce
// the per-point entry points exactly for every ObjectiveModel subclass, and
// the solvers built on top must return identical solutions: MOGD's lockstep
// multistarts against the one-start-at-a-time reference
// (mogd_reference.h), SolveBatch regardless of thread count or repetition.
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "model/analytic_models.h"
#include "model/gp_model.h"
#include "model/mlp_model.h"
#include "model/objective_model.h"
#include "moo/mogd.h"
#include "moo/problem.h"
#include "moo/progressive_frontier.h"
#include "mogd_reference.h"
#include "test_problems.h"

namespace udao {
namespace {

using testing_problems::ConvexProblem;
using testing_problems::UnitSpace2;
using testing_reference::ReferenceMinimize;
using testing_reference::ReferenceSolveCo;

Matrix RandomPoints(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, dim);
  for (double& v : x.data()) v = rng.Uniform();
  return x;
}

Vector Row(const Matrix& x, int i) {
  return Vector(x.RowPtr(i), x.RowPtr(i) + x.cols());
}

// Asserts the three batch entry points agree exactly with their scalar
// counterparts on every row of `x`.
void ExpectBatchMatchesScalar(const ObjectiveModel& model, const Matrix& x) {
  const int n = x.rows();
  const int dim = x.cols();

  Vector batch_values;
  model.PredictBatch(x, &batch_values);
  ASSERT_EQ(static_cast<int>(batch_values.size()), n);

  Matrix batch_grads;
  Vector fused_values;
  model.GradientBatch(x, &batch_grads, &fused_values);
  ASSERT_EQ(batch_grads.rows(), n);
  ASSERT_EQ(batch_grads.cols(), dim);
  ASSERT_EQ(static_cast<int>(fused_values.size()), n);

  Matrix grads_only;
  model.GradientBatch(x, &grads_only);

  Vector batch_mean;
  Vector batch_std;
  model.PredictWithUncertaintyBatch(x, &batch_mean, &batch_std);
  ASSERT_EQ(static_cast<int>(batch_mean.size()), n);
  ASSERT_EQ(static_cast<int>(batch_std.size()), n);

  for (int i = 0; i < n; ++i) {
    const Vector xi = Row(x, i);
    const double scalar_value = model.Predict(xi);
    EXPECT_EQ(batch_values[i], scalar_value) << "PredictBatch row " << i;
    EXPECT_EQ(fused_values[i], scalar_value) << "fused values row " << i;
    const Vector scalar_grad = model.InputGradient(xi);
    for (int d = 0; d < dim; ++d) {
      EXPECT_EQ(batch_grads(i, d), scalar_grad[d])
          << "GradientBatch row " << i << " dim " << d;
      EXPECT_EQ(grads_only(i, d), scalar_grad[d])
          << "GradientBatch (no values) row " << i << " dim " << d;
    }
    double mean = 0.0;
    double stddev = 0.0;
    model.PredictWithUncertainty(xi, &mean, &stddev);
    EXPECT_EQ(batch_mean[i], mean) << "uncertainty mean row " << i;
    EXPECT_EQ(batch_std[i], stddev) << "uncertainty std row " << i;
  }
}

std::shared_ptr<MlpModel> FitTinyMlp(int dim, bool log_targets) {
  Rng rng(11);
  Matrix x = RandomPoints(48, dim, 5);
  Vector y(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    y[i] = 1.5 + x(i, 0) * 2.0 + (dim > 1 ? x(i, 1) * x(i, 1) : 0.0);
  }
  MlpModelConfig cfg;
  cfg.hidden = {16, 16};
  cfg.train.epochs = 60;
  cfg.log_transform_targets = log_targets;
  auto fitted = MlpModel::Fit(x, y, cfg, &rng);
  EXPECT_TRUE(fitted.ok());
  return *fitted;
}

std::shared_ptr<GpModel> FitTinyGp(int dim, bool log_targets) {
  Matrix x = RandomPoints(32, dim, 6);
  Vector y(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    y[i] = 2.0 + x(i, 0) + 0.5 * x(i, dim - 1);
  }
  GpConfig cfg;
  cfg.hyper_opt_steps = 20;
  cfg.log_transform_targets = log_targets;
  auto fitted = GpModel::Fit(x, y, cfg);
  EXPECT_TRUE(fitted.ok());
  return *fitted;
}

TEST(BatchEvalTest, MlpModelMatchesScalar) {
  ExpectBatchMatchesScalar(*FitTinyMlp(4, false), RandomPoints(17, 4, 21));
}

TEST(BatchEvalTest, MlpModelLogTargetsMatchesScalar) {
  ExpectBatchMatchesScalar(*FitTinyMlp(3, true), RandomPoints(9, 3, 22));
}

TEST(BatchEvalTest, GpModelMatchesScalar) {
  ExpectBatchMatchesScalar(*FitTinyGp(4, false), RandomPoints(13, 4, 23));
}

TEST(BatchEvalTest, GpModelLogTargetsMatchesScalar) {
  ExpectBatchMatchesScalar(*FitTinyGp(3, true), RandomPoints(7, 3, 24));
}

TEST(BatchEvalTest, AnalyticModelsMatchScalar) {
  const int batch_dim = BatchParamSpace().EncodedDim();
  const int stream_dim = StreamParamSpace().EncodedDim();
  auto latency = MakeAnalyticBatchLatencyModel(AnalyticWorkload{});
  ExpectBatchMatchesScalar(*latency, RandomPoints(11, batch_dim, 31));
  ExpectBatchMatchesScalar(*MakeCostCoresModel(),
                           RandomPoints(11, batch_dim, 32));
  ExpectBatchMatchesScalar(*MakeStreamCostCoresModel(),
                           RandomPoints(11, stream_dim, 33));
  ExpectBatchMatchesScalar(*MakeCpuHourModel(latency),
                           RandomPoints(11, batch_dim, 34));
  ExpectBatchMatchesScalar(*MakeFig3LatencyModel(), RandomPoints(11, 2, 35));
  ExpectBatchMatchesScalar(*MakeFig3CostModel(), RandomPoints(11, 2, 36));
}

TEST(BatchEvalTest, CallableModelDefaultLoopMatchesScalar) {
  // A per-point lambda only: exercises the row-by-row lift of the value and
  // the finite-difference gradient end to end.
  CallableModel model("quad", 3, [](const Vector& x) {
    return x[0] * x[0] + 2.0 * x[1] + x[2];
  });
  ExpectBatchMatchesScalar(model, RandomPoints(6, 3, 41));
}

TEST(BatchEvalTest, WrapperModelsMatchScalar) {
  auto mlp = FitTinyMlp(3, false);
  ExpectBatchMatchesScalar(NonNegativeModel(mlp), RandomPoints(9, 3, 51));
  auto gp = FitTinyGp(3, false);
  ExpectBatchMatchesScalar(NonNegativeModel(gp), RandomPoints(9, 3, 52));
}

// A DNN-backed bi-objective problem over UnitSpace2, exercising the GEMM
// batch path inside the solvers.
MooProblem DnnProblem(std::shared_ptr<MlpModel>* keep_alive) {
  *keep_alive = FitTinyMlp(2, false);
  auto cost = std::make_shared<CallableModel>(
      "cost", 2, [](const Vector& x) { return x[0] + 0.3 * x[1]; },
      [](const Vector& x) {
        (void)x;
        return Vector{1.0, 0.3};
      });
  return MooProblem(&UnitSpace2(),
                    {ObjectiveSpec{"lat", *keep_alive},
                     ObjectiveSpec{"cost", cost}});
}

MogdConfig SmallConfig() {
  MogdConfig cfg;
  cfg.multistart = 4;
  cfg.max_iters = 40;
  return cfg;
}

CoProblem CenterBox(const MooProblem& problem) {
  MogdSolver solver(SmallConfig());
  CoResult a = solver.Minimize(problem, 0);
  CoResult b = solver.Minimize(problem, 1);
  CoProblem co;
  co.target = 0;
  co.lower = {std::min(a.objectives[0], b.objectives[0]),
              std::min(a.objectives[1], b.objectives[1])};
  co.upper = {std::max(a.objectives[0], b.objectives[0]),
              std::max(a.objectives[1], b.objectives[1])};
  return co;
}

TEST(BatchEvalTest, MogdBatchedMatchesScalarSolutions) {
  std::shared_ptr<MlpModel> keep;
  MooProblem dnn = DnnProblem(&keep);
  const MogdConfig cfg = SmallConfig();
  const CoProblem co = CenterBox(dnn);
  auto batched = MogdSolver(cfg).SolveCo(dnn, co);
  auto scalar = ReferenceSolveCo(dnn, co, cfg, cfg.seed);
  ASSERT_EQ(batched.has_value(), scalar.has_value());
  if (batched.has_value()) {
    EXPECT_EQ(batched->x, scalar->x);
    EXPECT_EQ(batched->raw, scalar->raw);
    EXPECT_EQ(batched->target_value, scalar->target_value);
    EXPECT_EQ(batched->objectives, scalar->objectives);
  }

  for (int target : {0, 1}) {
    CoResult m_batched = MogdSolver(cfg).Minimize(dnn, target);
    CoResult m_scalar = ReferenceMinimize(dnn, target, cfg);
    EXPECT_EQ(m_batched.x, m_scalar.x) << "target " << target;
    EXPECT_EQ(m_batched.target_value, m_scalar.target_value)
        << "target " << target;
    EXPECT_EQ(m_batched.objectives, m_scalar.objectives)
        << "target " << target;
  }

  // Same equivalence on the callable convex problem (default batch loops).
  MooProblem convex = ConvexProblem();
  const CoProblem convex_co = CenterBox(convex);
  auto r_batched = MogdSolver(cfg).SolveCo(convex, convex_co);
  auto r_scalar = ReferenceSolveCo(convex, convex_co, cfg, cfg.seed);
  ASSERT_EQ(r_batched.has_value(), r_scalar.has_value());
  if (r_batched.has_value()) {
    EXPECT_EQ(r_batched->x, r_scalar->x);
    EXPECT_EQ(r_batched->target_value, r_scalar->target_value);
  }
}

TEST(BatchEvalTest, SolveBatchStableAcrossThreadsAndRuns) {
  std::shared_ptr<MlpModel> keep;
  MooProblem problem = DnnProblem(&keep);
  std::vector<CoProblem> problems;
  const CoProblem base = CenterBox(problem);
  for (int i = 0; i < 6; ++i) {
    CoProblem co = base;
    const double span = base.upper[0] - base.lower[0];
    co.lower[0] = base.lower[0] + span * i / 6.0;
    co.upper[0] = base.lower[0] + span * (i + 1) / 6.0;
    problems.push_back(std::move(co));
  }

  MogdConfig inline_cfg = SmallConfig();  // pool == nullptr
  ThreadPool pool(8);
  MogdConfig pooled_cfg = SmallConfig();
  pooled_cfg.pool = &pool;

  auto inline_1 = MogdSolver(inline_cfg).SolveBatch(problem, problems);
  auto inline_2 = MogdSolver(inline_cfg).SolveBatch(problem, problems);
  auto pooled_1 = MogdSolver(pooled_cfg).SolveBatch(problem, problems);
  auto pooled_2 = MogdSolver(pooled_cfg).SolveBatch(problem, problems);

  for (size_t i = 0; i < problems.size(); ++i) {
    ASSERT_EQ(inline_1[i].has_value(), pooled_1[i].has_value()) << i;
    ASSERT_EQ(inline_1[i].has_value(), inline_2[i].has_value()) << i;
    ASSERT_EQ(pooled_1[i].has_value(), pooled_2[i].has_value()) << i;
    if (!inline_1[i].has_value()) continue;
    // Bitwise-stable: threads=1 vs threads=8, and run-to-run.
    EXPECT_EQ(inline_1[i]->x, pooled_1[i]->x) << i;
    EXPECT_EQ(inline_1[i]->target_value, pooled_1[i]->target_value) << i;
    EXPECT_EQ(inline_1[i]->x, inline_2[i]->x) << i;
    EXPECT_EQ(pooled_1[i]->x, pooled_2[i]->x) << i;
  }
}

TEST(BatchEvalTest, PerfCountersPopulated) {
  MooProblem problem = ConvexProblem();
  MogdConfig cfg = SmallConfig();
  MogdSolver solver(cfg);

  SolvePerf perf;
  const CoProblem co = CenterBox(problem);
  auto result = solver.SolveCo(problem, co, &perf);
  // multistart x (max_iters + 1 final) evaluations x 2 objectives.
  const long long expected_evals =
      2LL * cfg.multistart * (cfg.max_iters + 1);
  EXPECT_EQ(perf.model_evals, expected_evals);
  // Lockstep: one batch call per objective per evaluation round.
  EXPECT_EQ(perf.batch_calls, 2LL * (cfg.max_iters + 1));
  EXPECT_EQ(perf.iterations,
            static_cast<long long>(cfg.multistart) * cfg.max_iters);
  EXPECT_DOUBLE_EQ(perf.AvgBatch(), cfg.multistart);
  EXPECT_GE(perf.solve_seconds, perf.eval_seconds);
  EXPECT_GT(perf.solve_seconds, 0.0);
  if (result.has_value()) {
    EXPECT_EQ(result->perf.model_evals, expected_evals);
  }

  // PF aggregates counters across reference points and probes.
  PfConfig pf_cfg;
  pf_cfg.mogd = cfg;
  ProgressiveFrontier pf(&problem, pf_cfg);
  const PfResult& pf_result = pf.Run(6);
  EXPECT_GT(pf_result.perf.model_evals, 0);
  EXPECT_GT(pf_result.perf.batch_calls, 0);
  EXPECT_GT(pf_result.perf.iterations, 0);
  EXPECT_GT(pf_result.probes, 0);
}

}  // namespace
}  // namespace udao
