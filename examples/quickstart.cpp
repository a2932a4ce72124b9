// Quickstart: multi-objective optimization over hand-crafted models.
//
// Reproduces the paper's running example (TPCx-BB Q2, Fig. 2/3): two
// objectives -- latency and cost in #cores -- over two knobs (#executors,
// #cores per executor), solved with the Progressive Frontier algorithm, then
// a configuration recommended with Utopia-Nearest.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "model/analytic_models.h"
#include "moo/progressive_frontier.h"
#include "moo/recommend.h"
#include "spark/conf.h"

namespace {

// The two relaxed knobs of Fig. 3(f): x1 = #executors in [1,12],
// x2 = #cores/executor in [1,2].
const udao::ParamSpace& Fig3Space() {
  static const udao::ParamSpace& space = *new udao::ParamSpace({
      {"executors", udao::ParamType::kInteger, 1, 12, {}, 4},
      {"cores_per_executor", udao::ParamType::kInteger, 1, 2, {}, 2},
  });
  return space;
}

}  // namespace

int main() {
  using namespace udao;

  // 1. Objective models: latency = max(100, 2400/min(24, x1*x2)) seconds,
  //    cost = min(24, x1*x2) cores (Fig. 3(e)-(f), softened for gradients).
  MooProblem problem(&Fig3Space(),
                     {ObjectiveSpec{"latency", MakeFig3LatencyModel()},
                      ObjectiveSpec{"cost_cores", MakeFig3CostModel()}});

  // 2. Compute the Pareto frontier with PF-AP (the production default).
  PfConfig config;
  config.parallel = true;
  ProgressiveFrontier pf(&problem, config);
  const PfResult& result = pf.Run(/*total_points=*/10);

  std::printf("Utopia  point: latency %7.1f s, cost %5.1f cores\n",
              result.utopia[0], result.utopia[1]);
  std::printf("Nadir   point: latency %7.1f s, cost %5.1f cores\n\n",
              result.nadir[0], result.nadir[1]);
  std::printf("Pareto frontier (%zu points, %.1f%% uncertain space left, "
              "%d probes):\n",
              result.frontier.size(), result.uncertain_percent,
              result.probes);
  std::printf("  %-12s %-12s %-11s %s\n", "latency(s)", "cost(cores)",
              "executors", "cores/exec");
  for (const MooPoint& p : result.frontier) {
    const Vector raw = Fig3Space().Decode(p.conf_encoded);
    std::printf("  %-12.1f %-12.1f %-11.0f %.0f\n", p.objectives[0],
                p.objectives[1], raw[0], raw[1]);
  }

  // 3. Recommend one configuration from the frontier.
  auto balanced = WeightedUtopiaNearest(result.frontier, result.utopia,
                                        result.nadir, {0.5, 0.5});
  auto latency_first = WeightedUtopiaNearest(result.frontier, result.utopia,
                                             result.nadir, {0.9, 0.1});
  if (balanced.has_value() && latency_first.has_value()) {
    const Vector rb = Fig3Space().Decode(balanced->conf_encoded);
    const Vector rl = Fig3Space().Decode(latency_first->conf_encoded);
    std::printf("\nRecommendation, weights (0.5, 0.5): "
                "%2.0f executors x %1.0f cores -> latency %6.1f s, "
                "cost %4.1f cores\n",
                rb[0], rb[1], balanced->objectives[0],
                balanced->objectives[1]);
    std::printf("Recommendation, weights (0.9, 0.1): "
                "%2.0f executors x %1.0f cores -> latency %6.1f s, "
                "cost %4.1f cores\n",
                rl[0], rl[1], latency_first->objectives[0],
                latency_first->objectives[1]);
  }
  return 0;
}
