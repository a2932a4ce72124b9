#include <gtest/gtest.h>

#include <cmath>

#include "moo/exhaustive.h"
#include "moo/progressive_frontier.h"
#include "test_problems.h"

namespace udao {
namespace {

using testing_problems::ConcaveProblem;
using testing_problems::ConvexProblem;
using testing_problems::Tri;

ThreadPool* SharedPool() {
  static ThreadPool pool(4);
  return &pool;
}

PfConfig FastSequential() {
  PfConfig cfg;
  cfg.mogd.multistart = 4;
  cfg.mogd.max_iters = 120;
  return cfg;
}

PfConfig FastParallel() {
  PfConfig cfg = FastSequential();
  cfg.parallel = true;
  cfg.mogd.pool = SharedPool();
  return cfg;
}

TEST(PfTest, FrontierIsMutuallyNonDominated) {
  MooProblem problem = ConvexProblem();
  ProgressiveFrontier pf(&problem, FastSequential());
  const PfResult& result = pf.Run(10);
  EXPECT_GE(result.frontier.size(), 5u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
}

TEST(PfTest, UtopiaAndNadirBracketTheFrontier) {
  MooProblem problem = ConvexProblem();
  ProgressiveFrontier pf(&problem, FastSequential());
  const PfResult& result = pf.Run(8);
  for (const MooPoint& p : result.frontier) {
    for (size_t j = 0; j < p.objectives.size(); ++j) {
      EXPECT_GE(p.objectives[j], result.utopia[j] - 0.05);
      EXPECT_LE(p.objectives[j], result.nadir[j] + 0.05);
    }
  }
}

TEST(PfTest, PointsLieNearTrueFrontier) {
  // True frontier of ConvexProblem: F2 = (1 - F1)^2 with x1 = 0.
  MooProblem problem = ConvexProblem();
  ProgressiveFrontier pf(&problem, FastSequential());
  const PfResult& result = pf.Run(12);
  for (const MooPoint& p : result.frontier) {
    const double expected_f2 = (1.0 - p.objectives[0]) * (1.0 - p.objectives[0]);
    EXPECT_NEAR(p.objectives[1], expected_f2, 0.05)
        << "F1=" << p.objectives[0];
  }
}

TEST(PfTest, UncertainSpaceShrinksMonotonically) {
  MooProblem problem = ConvexProblem();
  ProgressiveFrontier pf(&problem, FastSequential());
  const PfResult& result = pf.Run(15);
  double prev = 100.0;
  for (const PfSnapshot& snap : result.history) {
    EXPECT_LE(snap.uncertain_percent, prev + 1e-9);
    prev = snap.uncertain_percent;
  }
  EXPECT_LT(result.uncertain_percent, 40.0);
}

TEST(PfTest, IncrementalExpansionIsConsistent) {
  // The paper's consistency property: points found with a small budget
  // remain in the frontier computed with a larger budget.
  MooProblem problem = ConvexProblem();
  ProgressiveFrontier pf(&problem, FastSequential());
  std::vector<MooPoint> small = pf.Run(6).frontier;
  const PfResult& big = pf.Run(14);
  EXPECT_GE(big.frontier.size(), small.size());
  for (const MooPoint& p : small) {
    bool found = false;
    for (const MooPoint& q : big.frontier) {
      if (q.objectives == p.objectives) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "point lost during expansion";
  }
}

TEST(PfTest, IncrementalInsertMatchesBatchParetoFilter) {
  // AddPoint maintains the frontier with a single-pass insert; re-filtering
  // the final frontier with the batch ParetoFilter must be a no-op (same
  // points, same order): the incremental path never leaves a dominated point
  // behind nor reorders survivors.
  for (const bool parallel : {false, true}) {
    MooProblem problem = ConvexProblem();
    ProgressiveFrontier pf(&problem,
                           parallel ? FastParallel() : FastSequential());
    const PfResult& result = pf.Run(12);
    ASSERT_GE(result.frontier.size(), 5u);
    const std::vector<MooPoint> refiltered = ParetoFilter(result.frontier);
    ASSERT_EQ(refiltered.size(), result.frontier.size());
    for (size_t i = 0; i < refiltered.size(); ++i) {
      EXPECT_EQ(refiltered[i].objectives, result.frontier[i].objectives);
      EXPECT_EQ(refiltered[i].conf_encoded, result.frontier[i].conf_encoded);
    }
  }
}

TEST(PfTest, ParallelVariantCoversFrontier) {
  MooProblem problem = ConvexProblem();
  ProgressiveFrontier pf(&problem, FastParallel());
  const PfResult& result = pf.Run(12);
  EXPECT_GE(result.frontier.size(), 8u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
  EXPECT_LT(result.uncertain_percent, 40.0);
}

TEST(PfTest, HandlesConcaveFrontier) {
  // Weighted-sum methods miss concave frontiers; PF must not.
  MooProblem problem = ConcaveProblem();
  ProgressiveFrontier pf(&problem, FastSequential());
  const PfResult& result = pf.Run(12);
  // Expect interior points (F1 well inside (0,1)) on the concave frontier.
  int interior = 0;
  for (const MooPoint& p : result.frontier) {
    if (p.objectives[0] > 0.15 && p.objectives[0] < 0.85) ++interior;
  }
  EXPECT_GE(interior, 3);
}

TEST(PfTest, ThreeObjectives) {
  MooProblem problem = Tri();
  PfConfig cfg = FastParallel();
  ProgressiveFrontier pf(&problem, cfg);
  const PfResult& result = pf.Run(10);
  EXPECT_GE(result.frontier.size(), 6u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
  EXPECT_EQ(result.utopia.size(), 3u);
}

TEST(PfTest, ExhaustiveSolverVariantMatchesMogdFrontier) {
  MooProblem problem = ConvexProblem();
  PfConfig cfg;
  cfg.use_exhaustive = true;
  cfg.exhaustive_budget = 3000;
  ProgressiveFrontier pf(&problem, cfg);
  const PfResult& result = pf.Run(8);
  EXPECT_GE(result.frontier.size(), 5u);
  for (const MooPoint& p : result.frontier) {
    const double expected_f2 = (1.0 - p.objectives[0]) * (1.0 - p.objectives[0]);
    EXPECT_NEAR(p.objectives[1], expected_f2, 0.1);
  }
}

TEST(PfTest, UserConstraintsRestrictTheFrontier) {
  auto f1 = std::make_shared<CallableModel>(
      "f1", 2, [](const Vector& x) { return x[0] + x[1]; });
  auto f2 = std::make_shared<CallableModel>("f2", 2, [](const Vector& x) {
    return (1.0 - x[0]) * (1.0 - x[0]) + x[1];
  });
  // f1 spans [0, 2]. The last bound lies below that range, so it inverts
  // the f1 axis of the box: nothing satisfies it, and the frontier is empty.
  struct Bounds {
    double lower;
    double upper;
    bool feasible;
  };
  for (const Bounds& bounds :
       {Bounds{0.3, 0.7, true}, Bounds{-ObjectiveSpec::kInf, -1.0, false}}) {
    ObjectiveSpec o1{"f1", f1};
    o1.lower = bounds.lower;
    o1.upper = bounds.upper;
    ObjectiveSpec o2{"f2", f2};
    MooProblem problem(&testing_problems::UnitSpace2(), {o1, o2});
    ProgressiveFrontier pf(&problem, FastSequential());
    const PfResult& result = pf.Run(8);
    EXPECT_EQ(result.frontier.empty(), !bounds.feasible)
        << "f1 in [" << bounds.lower << ", " << bounds.upper << "]";
    // The search box never reaches past the bounds.
    EXPECT_GE(result.utopia[0], bounds.lower);
    EXPECT_LE(result.nadir[0], bounds.upper);
    for (const MooPoint& p : result.frontier) {
      EXPECT_GE(p.objectives[0], bounds.lower - 0.02);
      EXPECT_LE(p.objectives[0], bounds.upper + 0.02);
    }
  }
}

// A constant objective collapses its box axis to a point; PF widens that
// axis so the box keeps a volume, and the frontier is the other objective's
// minimum at the constant's value.
TEST(PfTest, ConstantObjectiveStillYieldsAFrontier) {
  auto f1 = std::make_shared<CallableModel>(
      "f1", 2, [](const Vector& x) { return x[0] + x[1]; });
  auto f2 = std::make_shared<CallableModel>(
      "f2", 2, [](const Vector&) { return 0.5; });
  MooProblem problem(&testing_problems::UnitSpace2(),
                     {ObjectiveSpec{"f1", f1}, ObjectiveSpec{"f2", f2}});
  ProgressiveFrontier pf(&problem, FastSequential());
  const PfResult& result = pf.Run(4);
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_GT(result.nadir[1], result.utopia[1]);
  for (const MooPoint& p : result.frontier) {
    EXPECT_EQ(p.objectives[1], 0.5);
    EXPECT_LE(p.objectives[0], 0.02);
  }
}

TEST(PfTest, FourObjectivesUseQmcHypervolume) {
  // k = 4 exercises the generic 2^k splitting and the QMC hypervolume path.
  auto f1 = std::make_shared<CallableModel>(
      "f1", 2, [](const Vector& x) { return x[0]; });
  auto f2 = std::make_shared<CallableModel>(
      "f2", 2, [](const Vector& x) { return x[1]; });
  auto f3 = std::make_shared<CallableModel>("f3", 2, [](const Vector& x) {
    return (1 - x[0]) * (1 - x[0]);
  });
  auto f4 = std::make_shared<CallableModel>("f4", 2, [](const Vector& x) {
    return (1 - x[1]) * (1 - x[1]);
  });
  MooProblem problem(&testing_problems::UnitSpace2(),
                     {ObjectiveSpec{"f1", f1}, ObjectiveSpec{"f2", f2},
                      ObjectiveSpec{"f3", f3}, ObjectiveSpec{"f4", f4}});
  PfConfig cfg = FastSequential();
  cfg.max_probes = 60;
  ProgressiveFrontier pf(&problem, cfg);
  const PfResult& result = pf.Run(8);
  EXPECT_GE(result.frontier.size(), 4u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
  EXPECT_EQ(result.utopia.size(), 4u);
  EXPECT_LE(result.uncertain_percent, 100.0);
}

TEST(PfTest, FifoOrderStillFindsValidFrontier) {
  MooProblem problem = ConvexProblem();
  PfConfig cfg = FastSequential();
  cfg.fifo_queue = true;
  ProgressiveFrontier pf(&problem, cfg);
  const PfResult& result = pf.Run(10);
  EXPECT_GE(result.frontier.size(), 5u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
}

// Property: every PF frontier point is (close to) non-dominated with respect
// to a dense exhaustive reference frontier.
class PfGroundTruthProperty : public ::testing::TestWithParam<int> {};

TEST_P(PfGroundTruthProperty, NoPointFarBehindTrueFrontier) {
  MooProblem problem =
      GetParam() % 2 == 0 ? ConvexProblem() : ConcaveProblem();
  PfConfig cfg = FastSequential();
  cfg.mogd.seed = 100 + GetParam();
  ProgressiveFrontier pf(&problem, cfg);
  const PfResult& result = pf.Run(10);
  ExhaustiveSolver ex(5000);
  std::vector<MooPoint> truth = ex.Frontier(problem);
  for (const MooPoint& p : result.frontier) {
    // Distance from p to the closest true frontier point must be small.
    double best = 1e100;
    for (const MooPoint& t : truth) {
      best = std::min(best, SquaredDistance(p.objectives, t.objectives));
    }
    EXPECT_LT(std::sqrt(best), 0.08);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PfGroundTruthProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace udao
