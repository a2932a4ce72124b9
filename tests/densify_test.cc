// Frontier densification (src/moo/densify.h): sampling around incumbents
// must only ever improve the frontier -- the merged set weakly dominates the
// input point-for-point and stays mutually non-dominated, every added point
// respects the user value constraints, the whole operation is a pure
// function of (problem, frontier, config) per kernel backend (1e-12 across
// backends), and a fired StopToken makes it a transactional no-op. The
// serving-layer tests pin the cache interaction: hits densify a private
// copy, the cached entry never mutates, densified results are never cached.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/random.h"
#include "model/mlp_model.h"
#include "moo/densify.h"
#include "moo/pareto.h"
#include "nn/kernels.h"
#include "serving/udao_service.h"
#include "test_problems.h"

namespace udao {
namespace {

using kernels::Backend;
using kernels::ScopedBackendForTesting;
using testing_problems::ConvexProblem;
using testing_problems::UnitSpace2;

// A deliberately sparse slice of ConvexProblem's true frontier (x1 = 0, so
// F2 = (1 - F1)^2 exactly).
std::vector<MooPoint> SparseConvexFrontier(const MooProblem& problem) {
  std::vector<MooPoint> frontier;
  for (const double x0 : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Vector x = {x0, 0.0};
    frontier.push_back(MooPoint{problem.Evaluate(x), x});
  }
  return frontier;
}

// True when some merged point weakly dominates `p` (equal or dominating):
// the guarantee that merging never loses ground anywhere on the frontier.
bool WeaklyCovered(const std::vector<MooPoint>& merged, const MooPoint& p) {
  for (const MooPoint& m : merged) {
    if (m.objectives == p.objectives || Dominates(m.objectives, p.objectives)) {
      return true;
    }
  }
  return false;
}

void ExpectBitwiseEqual(const std::vector<MooPoint>& a,
                        const std::vector<MooPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives) << "point " << i;
    EXPECT_EQ(a[i].conf_encoded, b[i].conf_encoded) << "point " << i;
  }
}

TEST(DensifyTest, MergedFrontierWeaklyDominatesInputAndStaysValid) {
  const MooProblem problem = ConvexProblem();
  const std::vector<MooPoint> input = SparseConvexFrontier(problem);
  DensifyConfig config;
  config.samples_per_point = 32;
  config.radius = 0.1;
  DensifyStats stats;
  const std::vector<MooPoint> merged =
      DensifyFrontier(problem, input, config, StopToken(), &stats);

  EXPECT_TRUE(MutuallyNonDominated(merged));
  for (const MooPoint& p : input) {
    EXPECT_TRUE(WeaklyCovered(merged, p));
  }
  // Clamped-to-zero x1 jitter lands exact Pareto points between the sparse
  // incumbents, so this configuration genuinely thickens the frontier.
  EXPECT_GT(stats.added, 0);
  EXPECT_EQ(static_cast<int>(merged.size()),
            static_cast<int>(input.size()) + stats.added - stats.evicted);
  EXPECT_EQ(stats.candidates, 32 * static_cast<int>(input.size()));
  EXPECT_FALSE(stats.stopped);
  // Every merged point's objectives are real evaluations of its encoded
  // configuration, not sampling artifacts.
  for (const MooPoint& m : merged) {
    EXPECT_EQ(m.objectives, problem.Evaluate(m.conf_encoded));
  }
}

TEST(DensifyTest, AddedPointsSatisfyUserConstraints) {
  MooProblem base = ConvexProblem();
  std::vector<ObjectiveSpec> objectives = {base.objective(0),
                                           base.objective(1)};
  objectives[0].lower = 0.3;
  objectives[0].upper = 1.2;
  objectives[1].upper = 0.5;
  const MooProblem problem(&UnitSpace2(), std::move(objectives));

  const std::vector<MooPoint> input = SparseConvexFrontier(problem);
  DensifyConfig config;
  config.samples_per_point = 64;
  config.radius = 0.15;
  DensifyStats stats;
  const std::vector<MooPoint> merged =
      DensifyFrontier(problem, input, config, StopToken(), &stats);

  // Input points survive unconditionally (they may predate the bounds); only
  // *added* points owe feasibility.
  int added_seen = 0;
  for (const MooPoint& m : merged) {
    bool from_input = false;
    for (const MooPoint& p : input) {
      if (m.objectives == p.objectives) {
        from_input = true;
        break;
      }
    }
    if (from_input) continue;
    ++added_seen;
    for (int j = 0; j < problem.NumObjectives(); ++j) {
      EXPECT_GE(m.objectives[j], problem.UserLower(j) - 1e-9);
      EXPECT_LE(m.objectives[j], problem.UserUpper(j) + 1e-9);
    }
  }
  EXPECT_EQ(added_seen, stats.added);
}

TEST(DensifyTest, BitwiseDeterministicPerBackendAndParityAcrossBackends) {
  // An MLP-backed problem exercises the real kernel path (GEMM + activation
  // arena) rather than the closed-form test models.
  Rng rng(11);
  Matrix x(48, 2);
  for (double& v : x.data()) v = rng.Uniform();
  Vector y1(x.rows()), y2(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    y1[i] = 1.5 + 2.0 * x(i, 0) + x(i, 1) * x(i, 1);
    y2[i] = 2.0 - x(i, 0) + 0.5 * x(i, 1);
  }
  MlpModelConfig cfg;
  cfg.hidden = {16, 16};
  cfg.train.epochs = 60;
  Rng fit1(11), fit2(12);
  auto m1 = MlpModel::Fit(x, y1, cfg, &fit1);
  auto m2 = MlpModel::Fit(x, y2, cfg, &fit2);
  ASSERT_TRUE(m1.ok() && m2.ok());
  const MooProblem problem(
      &UnitSpace2(), {ObjectiveSpec{"m1", *m1}, ObjectiveSpec{"m2", *m2}});

  std::vector<MooPoint> input;
  for (const double x0 : {0.1, 0.5, 0.9}) {
    const Vector point = {x0, 1.0 - x0};
    input.push_back(MooPoint{problem.Evaluate(point), point});
  }
  input = ParetoFilter(std::move(input));
  ASSERT_FALSE(input.empty());

  DensifyConfig config;
  config.samples_per_point = 16;
  config.radius = 0.1;

  const std::vector<MooPoint> scalar_run = [&] {
    ScopedBackendForTesting scoped(Backend::kScalar);
    return DensifyFrontier(problem, input, config);
  }();
  const std::vector<MooPoint> scalar_again = [&] {
    ScopedBackendForTesting scoped(Backend::kScalar);
    return DensifyFrontier(problem, input, config);
  }();
  ExpectBitwiseEqual(scalar_run, scalar_again);

  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::vector<MooPoint> avx2_run = [&] {
    ScopedBackendForTesting scoped(Backend::kAvx2);
    return DensifyFrontier(problem, input, config);
  }();
  // Candidate *selection* may not flip across backends (the sampling is
  // backend-independent and the dedup/dominance margins are far above a few
  // ulps here), so the sets align 1:1 within the kernel parity envelope.
  ASSERT_EQ(avx2_run.size(), scalar_run.size());
  for (size_t i = 0; i < avx2_run.size(); ++i) {
    EXPECT_EQ(avx2_run[i].conf_encoded, scalar_run[i].conf_encoded);
    for (size_t j = 0; j < avx2_run[i].objectives.size(); ++j) {
      const double a = avx2_run[i].objectives[j];
      const double s = scalar_run[i].objectives[j];
      const double scale = std::max({1.0, std::abs(a), std::abs(s)});
      EXPECT_LE(std::abs(a - s), 1e-12 * scale) << "point " << i;
    }
  }
}

TEST(DensifyTest, FiredStopTokenIsATransactionalNoOp) {
  const MooProblem problem = ConvexProblem();
  const std::vector<MooPoint> input = SparseConvexFrontier(problem);
  CancellationSource source;
  source.Cancel();
  const StopToken fired(Deadline(), source.token());

  DensifyConfig config;
  config.samples_per_point = 32;
  DensifyStats stats;
  const std::vector<MooPoint> out =
      DensifyFrontier(problem, input, config, fired, &stats);

  ExpectBitwiseEqual(out, input);
  EXPECT_TRUE(stats.stopped);
  EXPECT_EQ(stats.added, 0);
}

TEST(DensifyTest, DisabledOrEmptyInputsPassThrough) {
  const MooProblem problem = ConvexProblem();
  const std::vector<MooPoint> input = SparseConvexFrontier(problem);
  DensifyConfig off;
  off.samples_per_point = 0;
  ExpectBitwiseEqual(DensifyFrontier(problem, input, off), input);
  EXPECT_TRUE(DensifyFrontier(problem, {}, DensifyConfig()).empty());
}

TEST(DensifyTest, CandidateCapSharesBudgetDeterministically) {
  const MooProblem problem = ConvexProblem();
  const std::vector<MooPoint> input = SparseConvexFrontier(problem);
  DensifyConfig config;
  config.samples_per_point = 64;
  config.max_candidates = 10;  // 5 incumbents -> 2 candidates each
  DensifyStats stats;
  (void)DensifyFrontier(problem, input, config, StopToken(), &stats);
  EXPECT_EQ(stats.candidates, 10);
}

// ------------------------------------------------------------ serving layer

UdaoServiceConfig FastServiceConfig() {
  UdaoServiceConfig config;
  config.udao.pf.mogd.multistart = 4;
  config.udao.pf.mogd.max_iters = 40;
  config.udao.solver_threads = 2;
  config.udao.frontier_points = 8;
  config.admission_threads = 2;
  return config;
}

UdaoRequest ConvexRequest() {
  static const MooProblem& problem = *new MooProblem(ConvexProblem());
  UdaoRequest request;
  request.workload_id = "w";
  request.space = &UnitSpace2();
  request.objectives = {problem.objective(0), problem.objective(1)};
  return request;
}

// A warm repeat that opts into densification gets a strictly thicker
// frontier (higher box hypervolume) than the cold solve, while the cached
// entry itself stays exactly what PF produced -- a later plain repeat sees
// the undensified frontier bitwise.
TEST(DensifyServiceTest, CacheHitDensifiesACopyAndNeverMutatesTheCache) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());

  const UdaoRequest plain = ConvexRequest();
  const auto cold = service.Submit(plain).Wait();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  UdaoRequest warm = ConvexRequest();
  warm.options.densify_samples = 32;
  warm.options.densify_radius = 0.1;
  const auto densified = service.Submit(warm).Wait();
  ASSERT_TRUE(densified.ok()) << densified.status().ToString();

  const auto replay = service.Submit(plain).Wait();
  ASSERT_TRUE(replay.ok());

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 2);

  // The densified response is a strict quality improvement...
  const std::vector<MooPoint>& base = cold->frontier.frontier;
  const std::vector<MooPoint>& thick = densified->frontier.frontier;
  EXPECT_GT(thick.size(), base.size());
  EXPECT_TRUE(MutuallyNonDominated(thick));
  EXPECT_GT(BoxHypervolume(thick, densified->frontier.utopia,
                           densified->frontier.nadir),
            BoxHypervolume(base, cold->frontier.utopia, cold->frontier.nadir));
  for (const MooPoint& p : base) {
    EXPECT_TRUE(WeaklyCovered(thick, p));
  }
  // ... and it never leaked into the cache: the plain replay is served the
  // undensified frontier bitwise.
  ExpectBitwiseEqual(replay->frontier.frontier, base);
}

// Densification is deterministic end-to-end at the service boundary: two
// identical warm densified repeats return bitwise-identical frontiers.
TEST(DensifyServiceTest, WarmDensifiedRepeatsAreBitwiseIdentical) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());

  UdaoRequest warm = ConvexRequest();
  warm.options.densify_samples = 16;
  const auto first = service.Submit(warm).Wait();
  const auto second = service.Submit(warm).Wait();
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectBitwiseEqual(first->frontier.frontier, second->frontier.frontier);
  EXPECT_EQ(first->conf_encoded, second->conf_encoded);
}

}  // namespace
}  // namespace udao
