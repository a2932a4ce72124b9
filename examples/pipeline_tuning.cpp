// Pipeline tuning: the paper's future-work extension ("support a pipeline of
// analytic tasks"), implemented over the simulated substrate.
//
// A three-stage nightly pipeline -- ETL (SQL), feature extraction (UDF), and
// model training (ML) -- is optimized end to end over additive objectives
// (latency in seconds, cost in CPU-hours). Each stage gets its own Pareto
// frontier; the composed pipeline frontier decomposes every trade-off point
// back into one configuration per stage.
//
// Build & run:  ./build/examples/pipeline_tuning
#include <cstdio>

#include "common/random.h"
#include "model/analytic_models.h"
#include "spark/engine.h"
#include "tuning/pipeline.h"
#include "workload/tpcxbb.h"
#include "workload/trace_gen.h"

int main() {
  using namespace udao;

  SparkEngine engine;
  // Stage workloads: template 10 (SQL scan/aggregate), template 16 (UDF
  // join), template 27 (ML training).
  const int stage_jobs[] = {10, 16, 27};
  const char* stage_names[] = {"etl", "features", "train"};

  // Per-stage problems over (latency, CPU-hour): both objectives add up
  // across sequential stages. Latency models are DNNs trained on traces;
  // CPU-hour = latency * cores / 3600 composes the learned latency model
  // with the exact cores function.
  std::vector<std::unique_ptr<ModelServer>> servers;
  std::vector<std::unique_ptr<MooProblem>> problems;
  std::vector<BatchWorkload> workloads;
  for (int job : stage_jobs) {
    workloads.push_back(MakeTpcxbbWorkload(job));
    auto server = std::make_unique<ModelServer>();
    Rng rng(100 + job);
    auto configs = SampleConfigs(BatchParamSpace(), 100,
                                 SamplingStrategy::kLatinHypercube, &rng);
    CollectBatchTraces(engine, workloads.back(), configs, server.get());
    auto latency = server->GetModel(workloads.back().id, objectives::kLatency);
    if (!latency.ok()) {
      std::printf("training failed: %s\n",
                  latency.status().ToString().c_str());
      return 1;
    }
    auto floored = std::make_shared<NonNegativeModel>(*latency);
    problems.push_back(std::make_unique<MooProblem>(
        &BatchParamSpace(),
        std::vector<ObjectiveSpec>{
            ObjectiveSpec{objectives::kLatency, floored},
            ObjectiveSpec{objectives::kCostCpuHour,
                          MakeCpuHourModel(floored)}}));
    servers.push_back(std::move(server));
  }

  std::vector<PipelineStage> stages;
  for (size_t i = 0; i < problems.size(); ++i) {
    stages.push_back(PipelineStage{stage_names[i], problems[i].get()});
  }

  PipelineOptions options;
  options.points_per_stage = 10;
  PipelineOptimizer optimizer(options);
  auto result = optimizer.Optimize(stages);
  if (!result.ok()) {
    std::printf("pipeline optimization failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }

  std::printf("pipeline frontier: %zu points (stage frontiers:",
              result->frontier.size());
  for (int s : result->stage_frontier_sizes) std::printf(" %d", s);
  std::printf(")\n");
  std::printf("pipeline latency range [%.1f, %.1f] s, cost range "
              "[%.3f, %.3f] CPU-hours\n\n",
              result->utopia[0], result->nadir[0], result->utopia[1],
              result->nadir[1]);

  for (const auto& [wl, wc] : std::initializer_list<std::pair<double, double>>{
           {0.5, 0.5}, {0.9, 0.1}}) {
    auto choice = PipelineOptimizer::Recommend(*result, {wl, wc});
    if (!choice.has_value()) continue;
    std::printf("weights (%.1f, %.1f): predicted pipeline latency %.1f s, "
                "cost %.3f CPU-hours\n",
                wl, wc, choice->objectives[0], choice->objectives[1]);
    double measured_total = 0;
    for (size_t s = 0; s < stages.size(); ++s) {
      const Vector raw =
          BatchParamSpace().Decode(choice->stage_confs_encoded[s]);
      const SparkConf conf = SparkConf::FromRaw(raw);
      const double measured = engine.Latency(workloads[s].flow, raw);
      measured_total += measured;
      std::printf("  stage %-9s -> %2.0f executors x %1.0f cores "
                  "(measured %.1f s)\n",
                  stage_names[s], conf.executor_instances,
                  conf.executor_cores, measured);
    }
    std::printf("  measured pipeline latency: %.1f s\n\n", measured_total);
  }
  std::printf("One preference vector picks a coherent per-stage plan; "
              "shifting it re-balances every stage at once.\n");
  return 0;
}
