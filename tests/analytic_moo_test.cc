// End-to-end MOO over the hand-crafted regression models (modeling option 1
// of Section II-B) on the full 12-knob batch space: no trace collection or
// training involved, so these tests pin down the optimizer stack itself.
#include <gtest/gtest.h>

#include <cmath>

#include "model/analytic_models.h"
#include "moo/progressive_frontier.h"
#include "moo/recommend.h"
#include "spark/conf.h"

namespace udao {
namespace {

MooProblem LatencyCostProblem(const AnalyticWorkload& workload) {
  return MooProblem(&BatchParamSpace(),
                    {ObjectiveSpec{"latency",
                                   MakeAnalyticBatchLatencyModel(workload)},
                     ObjectiveSpec{"cost_cores", MakeCostCoresModel()}});
}

PfConfig FastConfig() {
  PfConfig cfg;
  cfg.parallel = true;
  cfg.mogd.multistart = 6;
  cfg.mogd.max_iters = 120;
  return cfg;
}

TEST(AnalyticMooTest, FrontierSpansTheResourceRange) {
  MooProblem problem = LatencyCostProblem(AnalyticWorkload{});
  ProgressiveFrontier pf(&problem, FastConfig());
  const PfResult& result = pf.Run(15);
  ASSERT_GE(result.frontier.size(), 8u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
  double min_cost = 1e9;
  double max_cost = 0;
  for (const MooPoint& p : result.frontier) {
    min_cost = std::min(min_cost, p.objectives[1]);
    max_cost = std::max(max_cost, p.objectives[1]);
  }
  // The frontier should reach both cheap and expensive allocations.
  EXPECT_LT(min_cost, 10.0);
  EXPECT_GT(max_cost, 60.0);
}

TEST(AnalyticMooTest, LatencyDecreasesAlongRisingCost) {
  MooProblem problem = LatencyCostProblem(AnalyticWorkload{});
  ProgressiveFrontier pf(&problem, FastConfig());
  const PfResult& result = pf.Run(12);
  // Sort by cost; latency must be non-increasing (frontier property).
  std::vector<MooPoint> sorted = result.frontier;
  std::sort(sorted.begin(), sorted.end(),
            [](const MooPoint& a, const MooPoint& b) {
              return a.objectives[1] < b.objectives[1];
            });
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i].objectives[0], sorted[i - 1].objectives[0] + 1e-6);
  }
}

TEST(AnalyticMooTest, HeavierWorkloadsShiftTheFrontierUp) {
  AnalyticWorkload light;
  light.work = 2.0;
  AnalyticWorkload heavy;
  heavy.work = 40.0;
  MooProblem light_problem = LatencyCostProblem(light);
  MooProblem heavy_problem = LatencyCostProblem(heavy);
  ProgressiveFrontier pf_light(&light_problem, FastConfig());
  ProgressiveFrontier pf_heavy(&heavy_problem, FastConfig());
  const PfResult& rl = pf_light.Run(8);
  const PfResult& rh = pf_heavy.Run(8);
  // At any cost, the heavy workload's best latency exceeds the light one's
  // best latency; compare the utopia points.
  EXPECT_GT(rh.utopia[0], rl.utopia[0]);
}

TEST(AnalyticMooTest, DecodedFrontierConfigurationsAreValid) {
  MooProblem problem = LatencyCostProblem(AnalyticWorkload{});
  ProgressiveFrontier pf(&problem, FastConfig());
  const PfResult& result = pf.Run(10);
  for (const MooPoint& p : result.frontier) {
    const Vector raw = BatchParamSpace().Decode(p.conf_encoded);
    EXPECT_TRUE(BatchParamSpace().Validate(raw).ok());
  }
}

TEST(AnalyticMooTest, WunTracksPreferencesOnAnalyticFrontier) {
  MooProblem problem = LatencyCostProblem(AnalyticWorkload{});
  ProgressiveFrontier pf(&problem, FastConfig());
  const PfResult& result = pf.Run(15);
  auto latency_heavy = WeightedUtopiaNearest(result.frontier, result.utopia,
                                             result.nadir, {0.9, 0.1});
  auto cost_heavy = WeightedUtopiaNearest(result.frontier, result.utopia,
                                          result.nadir, {0.1, 0.9});
  ASSERT_TRUE(latency_heavy.has_value());
  ASSERT_TRUE(cost_heavy.has_value());
  EXPECT_LE(latency_heavy->objectives[0], cost_heavy->objectives[0] + 1e-9);
  EXPECT_GE(latency_heavy->objectives[1], cost_heavy->objectives[1] - 1e-9);
}

TEST(AnalyticMooTest, CpuHourObjectiveComposes) {
  auto latency = MakeAnalyticBatchLatencyModel(AnalyticWorkload{});
  MooProblem problem(&BatchParamSpace(),
                     {ObjectiveSpec{"latency", latency},
                      ObjectiveSpec{"cpu_hour", MakeCpuHourModel(latency)}});
  ProgressiveFrontier pf(&problem, FastConfig());
  const PfResult& result = pf.Run(10);
  EXPECT_GE(result.frontier.size(), 3u);
  EXPECT_TRUE(MutuallyNonDominated(result.frontier));
}

}  // namespace
}  // namespace udao
