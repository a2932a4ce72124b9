// Reproduces Fig. 6: the end-to-end comparison of UDAO (PF + workload-aware
// WUN) against OtterTune across the TPCx-BB and streaming test workloads.
//
//  Expt 3 (accurate models, 6(a)-(d)): both systems use OtterTune's mapped
//    GP models and predictions are treated as true values.
//  Expt 4 (inaccurate models, 6(e)-(f)): UDAO uses its DNN models, OtterTune
//    its GPs; recommendations are deployed on the execution substrate and
//    measured. Headline: 26% (w=0.5,0.5) and 49% (w=0.9,0.1) reduction of
//    total benchmark running time.
//  Expt 5 (6(g)-(h)): model accuracy (weighted APE) vs performance
//    improvement rate against the manual expert configuration, over the 120
//    recommended configurations of Expt 4 (2 weights x 2 cost metrics x 30
//    jobs).
#include <cstdio>

#include "common/stats.h"
#include "moo/recommend.h"
#include "tuning/expert.h"
#include "tuning/ottertune.h"
#include "tuning/udao.h"
#include "workload/trace_gen.h"

#include "bench_util.h"

namespace {

using namespace udao;
using namespace udao::bench;

// Builds the OtterTune-side server: the test workload's own (online-sized)
// traces plus an offline partner workload for mapping.
std::unique_ptr<ModelServer> MakeGpServer(const BatchWorkload& workload,
                                          const SparkEngine& engine) {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.log_transform_targets = true;
  cfg.gp.hyper_opt_steps = 30;
  auto server = std::make_unique<ModelServer>(cfg);
  Rng rng(4000 + std::stoi(workload.id));
  auto own = SampleConfigs(BatchParamSpace(), 24,
                           SamplingStrategy::kLatinHypercube, &rng);
  CollectBatchTraces(engine, workload, own, server.get());
  // Offline partner: same template, different data scale -- what metric
  // mapping tends to retrieve.
  BatchWorkload partner =
      MakeTpcxbbWorkload(std::stoi(workload.id) + 4 * kNumTpcxbbTemplates);
  auto offline = SampleConfigs(BatchParamSpace(), 60,
                               SamplingStrategy::kLatinHypercube, &rng);
  CollectBatchTraces(engine, partner, offline, server.get());
  return server;
}

// PF + workload-aware WUN over an arbitrary problem (the Expt 3 path where
// the problem is built from OtterTune's surrogates).
MooPoint PfWunRecommend(const MooProblem& problem, const Vector& external,
                        double default_latency) {
  PfConfig cfg;
  cfg.parallel = true;
  cfg.mogd = BenchMogd();
  ProgressiveFrontier pf(&problem, cfg);
  const PfResult& result = pf.Run(20);
  const Vector weights = CombineWeights(
      WorkloadAwareInternalWeights(default_latency), external);
  auto choice = WeightedUtopiaNearest(result.frontier, result.utopia,
                                      result.nadir, weights);
  UDAO_CHECK(choice.has_value());
  return *choice;
}

struct Expt4Row {
  int job;
  double ot_measured;
  double udao_measured;
  double ot_cores;
  double udao_cores;
  double ot_predicted;
  double udao_predicted;
  double expert_measured;
};

}  // namespace

int main(int argc, char** argv) {
  return BenchMain("bench_fig6_endtoend", argc, argv, [](
                       const BenchOptions& o) {
  SparkEngine engine;
  std::vector<int> test_jobs;
  if (o.quick) {
    // Two templates cover both systems' full pipelines (GP mapping, DNN
    // training, PF+WUN, measured deployment) in CI-smoke time.
    test_jobs = {2, 9};
  } else {
    for (int t = 1; t <= kNumTpcxbbTemplates; ++t) test_jobs.push_back(t);
  }
  const std::vector<std::pair<double, double>> weight_pairs =
      o.quick ? std::vector<std::pair<double, double>>{{0.5, 0.5}}
              : std::vector<std::pair<double, double>>{{0.5, 0.5}, {0.9, 0.1}};

  // ------------------------------------------------------------- Expt 3
  std::printf("=== Expt 3 (Fig. 6(a)-(b)): accurate models, batch 2D ===\n");
  std::printf("(both systems on OtterTune's GP models; predictions treated "
              "as true values; #cores allowed [2, 224])\n\n");
  for (const auto& [wl, wc] : weight_pairs) {
    std::printf("--- weights (%.1f, %.1f) ---\n", wl, wc);
    std::printf("%-5s %-12s %-12s %-10s %-10s %-12s\n", "job", "OT lat(s)",
                "UDAO lat(s)", "OT cores", "UDAO cores", "UDAO lat %");
    int udao_better_or_equal = 0;
    int ot_min_cores = 0;
    int udao_dominates = 0;
    for (int job : test_jobs) {
      BatchWorkload workload = MakeTpcxbbWorkload(job);
      std::unique_ptr<ModelServer> server = MakeGpServer(workload, engine);
      OtterTune ottertune(server.get(), OtterTuneConfig{});
      const std::vector<std::string> names = {objectives::kLatency,
                                              objectives::kCostCores};
      auto surrogates =
          ottertune.BuildSurrogates(BatchParamSpace(), workload.id, names);
      if (!surrogates.ok()) continue;
      auto ot_conf = ottertune.Recommend(BatchParamSpace(), workload.id,
                                         names, {wl, wc});
      if (!ot_conf.ok()) continue;
      MooProblem problem(
          &BatchParamSpace(),
          {ObjectiveSpec{names[0], (*surrogates)[0].model},
           ObjectiveSpec{names[1], (*surrogates)[1].model}});
      const Vector default_enc =
          BatchParamSpace().Encode(BatchParamSpace().Defaults());
      const double default_latency = problem.EvaluateOne(0, default_enc);
      MooPoint udao_pt = PfWunRecommend(problem, {wl, wc}, default_latency);

      const Vector ot_enc = BatchParamSpace().Encode(*ot_conf);
      const double ot_lat = problem.EvaluateOne(0, ot_enc);
      const double ot_cores = problem.EvaluateOne(1, ot_enc);
      const double udao_lat = udao_pt.objectives[0];
      const double udao_cores = udao_pt.objectives[1];
      const double slower = std::max(ot_lat, udao_lat);
      std::printf("%-5d %-12.1f %-12.1f %-10.0f %-10.0f %-12.0f\n", job,
                  ot_lat, udao_lat, ot_cores, udao_cores,
                  100.0 * udao_lat / std::max(1e-9, slower));
      if (udao_lat <= ot_lat + 1e-9) ++udao_better_or_equal;
      if (ot_cores <= 2.5) ++ot_min_cores;
      if (udao_lat < ot_lat && udao_cores <= ot_cores) ++udao_dominates;
    }
    std::printf("UDAO latency <= OtterTune: %d/%zu jobs; OtterTune picked "
                "(near) minimum cores on %d jobs; UDAO dominated OtterTune "
                "in both objectives on %d jobs\n\n",
                udao_better_or_equal, test_jobs.size(), ot_min_cores,
                udao_dominates);
  }

  // ------------------------------------------------------- Expt 3 (stream)
  std::printf("=== Expt 3 (Fig. 6(c)-(d)): accurate models, streaming "
              "(latency vs throughput) ===\n\n");
  StreamEngine stream_engine;
  const int stream_jobs = o.quick ? 3 : 15;
  for (const auto& [wl, wt] : weight_pairs) {
    std::printf("--- weights (%.1f, %.1f) ---\n", wl, wt);
    std::printf("%-5s %-12s %-12s %-12s %-12s\n", "job", "OT lat(s)",
                "UDAO lat(s)", "OT thr(k/s)", "UDAO thr");
    int udao_lower_latency = 0;
    double max_reduction = 0;
    for (int job = 1; job <= stream_jobs; ++job) {
      StreamWorkload workload = MakeStreamWorkload(job);
      ModelServerConfig cfg;
      cfg.kind = ModelKind::kGp;
      cfg.gp.hyper_opt_steps = 30;
      ModelServer server(cfg);
      Rng rng(5000 + job);
      auto own = SampleConfigs(StreamParamSpace(), 24,
                               SamplingStrategy::kLatinHypercube, &rng);
      CollectStreamTraces(stream_engine, workload, own, &server);
      StreamWorkload partner =
          MakeStreamWorkload(job + 3 * kNumStreamTemplates);
      auto offline = SampleConfigs(StreamParamSpace(), 60,
                                   SamplingStrategy::kLatinHypercube, &rng);
      CollectStreamTraces(stream_engine, partner, offline, &server);

      OtterTune ottertune(&server, OtterTuneConfig{});
      const std::vector<std::string> names = {objectives::kLatency,
                                              objectives::kThroughput};
      auto surrogates =
          ottertune.BuildSurrogates(StreamParamSpace(), workload.id, names);
      auto ot_conf = ottertune.Recommend(StreamParamSpace(), workload.id,
                                         names, {wl, -wt});
      if (!surrogates.ok() || !ot_conf.ok()) continue;
      // Throughput is maximized: direction flag on the second objective.
      MooProblem problem_max(
          &StreamParamSpace(),
          {ObjectiveSpec{names[0], (*surrogates)[0].model},
           ObjectiveSpec{names[1], (*surrogates)[1].model, false}});
      PfConfig pf_cfg;
      pf_cfg.parallel = true;
      pf_cfg.mogd = BenchMogd();
      ProgressiveFrontier pf(&problem_max, pf_cfg);
      const PfResult& result = pf.Run(15);
      auto choice = WeightedUtopiaNearest(result.frontier, result.utopia,
                                          result.nadir, {wl, wt});
      if (!choice.has_value()) continue;
      const Vector ot_enc = StreamParamSpace().Encode(*ot_conf);
      const double ot_lat = (*surrogates)[0].model->Predict(ot_enc);
      const double ot_thr = (*surrogates)[1].model->Predict(ot_enc);
      const double udao_lat = choice->objectives[0];
      const double udao_thr = -choice->objectives[1];
      std::printf("%-5d %-12.2f %-12.2f %-12.0f %-12.0f\n", job, ot_lat,
                  udao_lat, ot_thr, udao_thr);
      if (udao_lat < ot_lat) {
        ++udao_lower_latency;
        max_reduction =
            std::max(max_reduction, 100.0 * (ot_lat - udao_lat) / ot_lat);
      }
    }
    std::printf("UDAO lower latency on %d/%d jobs; max reduction %.0f%%\n\n",
                udao_lower_latency, stream_jobs, max_reduction);
  }

  // ------------------------------------------------------------- Expt 4+5
  std::printf("=== Expt 4 (Fig. 6(e)-(f)): inaccurate models, measured on "
              "the substrate ===\n");
  std::printf("(UDAO: DNN models; OtterTune: mapped GPs; cost1 = #cores)\n\n");
  std::vector<double> ape_udao;
  std::vector<double> ape_ot;
  std::vector<double> pir_udao;
  std::vector<double> pir_ot;
  for (const auto& [wl, wc] : weight_pairs) {
    std::vector<Expt4Row> rows;
    double total_ot = 0;
    double total_udao = 0;
    double total_expert = 0;
    double cores_ot = 0;
    double cores_udao = 0;
    for (int job : test_jobs) {
      // OtterTune pipeline.
      BatchWorkload workload = MakeTpcxbbWorkload(job);
      std::unique_ptr<ModelServer> gp_server = MakeGpServer(workload, engine);
      OtterTune ottertune(gp_server.get(), OtterTuneConfig{});
      const std::vector<std::string> names = {objectives::kLatency,
                                              objectives::kCostCores};
      auto ot_conf = ottertune.Recommend(BatchParamSpace(), workload.id,
                                         names, {wl, wc});
      if (!ot_conf.ok()) continue;
      auto ot_surr =
          ottertune.BuildSurrogates(BatchParamSpace(), workload.id, names);

      // UDAO pipeline (DNN models).
      BenchProblem udao_bp = MakeBatchProblem(job, QuickScaled(150, 60));
      Udao optimizer(udao_bp.server.get());
      UdaoRequest request;
      request.workload_id = udao_bp.workload_id;
      request.space = &BatchParamSpace();
      request.objectives = {{.name = objectives::kLatency},
                            {.name = objectives::kCostCores}};
      request.preference_weights = {wl, wc};
      auto udao_rec = optimizer.Optimize(request);
      if (!udao_rec.ok()) continue;

      Expt4Row row;
      row.job = job;
      row.ot_measured = engine.Latency(workload.flow, *ot_conf);
      row.udao_measured = engine.Latency(workload.flow, udao_rec->conf_raw);
      row.ot_cores = CostInCores(*ot_conf);
      row.udao_cores = CostInCores(udao_rec->conf_raw);
      row.ot_predicted =
          ot_surr.ok()
              ? (*ot_surr)[0].model->Predict(BatchParamSpace().Encode(*ot_conf))
              : row.ot_measured;
      row.udao_predicted = udao_rec->predicted_objectives[0];
      row.expert_measured =
          engine.Latency(workload.flow, ExpertBatchConfig(workload.flow));
      rows.push_back(row);

      total_ot += row.ot_measured;
      total_udao += row.udao_measured;
      total_expert += row.expert_measured;
      cores_ot += row.ot_cores;
      cores_udao += row.udao_cores;
      ape_ot.push_back(std::abs(row.ot_predicted - row.ot_measured) /
                       row.ot_measured);
      ape_udao.push_back(std::abs(row.udao_predicted - row.udao_measured) /
                         row.udao_measured);
      pir_ot.push_back((row.expert_measured - row.ot_measured) /
                       row.expert_measured);
      pir_udao.push_back((row.expert_measured - row.udao_measured) /
                         row.expert_measured);
    }
    // Top-12 long-running jobs by OtterTune-measured latency (Fig. 6(e)/(f)).
    std::sort(rows.begin(), rows.end(), [](const Expt4Row& a,
                                           const Expt4Row& b) {
      return a.ot_measured > b.ot_measured;
    });
    std::printf("--- weights (%.1f, %.1f): top-12 long-running jobs, "
                "measured latency (s) ---\n",
                wl, wc);
    std::printf("%-5s %-12s %-12s %-10s %-10s\n", "job", "Ottertune",
                "PF-WUN", "OT cores", "UDAO cores");
    for (size_t i = 0; i < rows.size() && i < 12; ++i) {
      std::printf("%-5d %-12.1f %-12.1f %-10.0f %-10.0f\n", rows[i].job,
                  rows[i].ot_measured, rows[i].udao_measured,
                  rows[i].ot_cores, rows[i].udao_cores);
    }
    std::printf("TOTAL benchmark running time: Ottertune %.0f s, UDAO %.0f s "
                "(%.0f%% reduction); total cores: OT %.0f, UDAO %.0f "
                "(%+.0f%%); expert %.0f s\n\n",
                total_ot, total_udao,
                100.0 * (total_ot - total_udao) / total_ot, cores_ot,
                cores_udao, 100.0 * (cores_udao - cores_ot) / cores_ot,
                total_expert);
  }

  // Fig. 9 contributes the cost2 half of the 120 configs; run the same two
  // weights with cost2 to complete Expt 5's sample. Quick mode skips it:
  // the cost2 half repeats the Expt 4 pipelines with a different objective.
  if (!o.quick) {
  std::printf("=== Expt 5 extra sample: latency + cost2 (learned) ===\n");
  for (const auto& [wl, wc] : weight_pairs) {
    for (int job : test_jobs) {
      BatchWorkload workload = MakeTpcxbbWorkload(job);
      std::unique_ptr<ModelServer> gp_server = MakeGpServer(workload, engine);
      OtterTune ottertune(gp_server.get(), OtterTuneConfig{});
      const std::vector<std::string> names = {objectives::kLatency,
                                              objectives::kCost2};
      auto ot_conf = ottertune.Recommend(BatchParamSpace(), workload.id,
                                         names, {wl, wc});
      BenchProblem udao_bp = MakeBatchProblem(job, 60, ModelKind::kDnn,
                                              /*cost2=*/true);
      Udao optimizer(udao_bp.server.get());
      UdaoRequest request;
      request.workload_id = udao_bp.workload_id;
      request.space = &BatchParamSpace();
      request.objectives = {{.name = objectives::kLatency},
                            {.name = objectives::kCost2}};
      request.preference_weights = {wl, wc};
      auto udao_rec = optimizer.Optimize(request);
      if (!ot_conf.ok() || !udao_rec.ok()) continue;
      const double ot_meas = engine.Latency(workload.flow, *ot_conf);
      const double udao_meas =
          engine.Latency(workload.flow, udao_rec->conf_raw);
      const double expert =
          engine.Latency(workload.flow, ExpertBatchConfig(workload.flow));
      auto ot_surr =
          ottertune.BuildSurrogates(BatchParamSpace(), workload.id, names);
      const double ot_pred =
          ot_surr.ok()
              ? (*ot_surr)[0].model->Predict(BatchParamSpace().Encode(*ot_conf))
              : ot_meas;
      ape_ot.push_back(std::abs(ot_pred - ot_meas) / ot_meas);
      ape_udao.push_back(
          std::abs(udao_rec->predicted_objectives[0] - udao_meas) /
          udao_meas);
      pir_ot.push_back((expert - ot_meas) / expert);
      pir_udao.push_back((expert - udao_meas) / expert);
    }
  }
  }
  std::printf("collected %zu configurations per system\n\n", pir_udao.size());

  std::printf("=== Expt 5 (Fig. 6(g)-(h)): accuracy vs improvement over the "
              "expert ===\n");
  auto summarize = [](const char* name, const std::vector<double>& ape,
                      const std::vector<double>& pir) {
    int negative = 0;
    for (double p : pir) negative += (p < 0);
    std::printf("%-10s mean APE %5.1f%%  mean PIR %+6.1f%%  PIR<0 on %d/%zu "
                "configs\n",
                name, 100.0 * Mean(ape), 100.0 * Mean(pir), negative,
                pir.size());
  };
  summarize("Ottertune", ape_ot, pir_ot);
  summarize("UDAO", ape_udao, pir_udao);
  std::printf("\n(the paper: DNN more accurate than GP; Ottertune below the "
              "expert on 38/120 configs vs 16/120 for UDAO)\n");
  return 0;
  });
}
