// Use Case 2 (serverless analytics): a cloud provider auto-scales a
// streaming analytics job as the load changes across the day, asking UDAO
// for a fresh configuration at every load change.
//
// The provider wants low record latency for end users while using as few
// computing units (cores) as possible; at each load level the optimizer is
// re-run with a throughput constraint matching the incoming rate.
//
// Build & run:  ./build/examples/serverless_autoscaling
#include <cstdio>

#include "common/random.h"
#include "spark/streaming.h"
#include "tuning/udao.h"
#include "workload/streambench.h"
#include "workload/trace_gen.h"

int main() {
  using namespace udao;

  StreamEngine engine;
  StreamWorkload workload = MakeStreamWorkload(54);
  std::printf("Serverless workload: %s\n\n", workload.profile.name.c_str());

  // Offline phase: the provider samples the configuration space once and
  // trains models; they are reused for every scaling decision.
  ModelServerConfig server_config;
  server_config.kind = ModelKind::kDnn;
  server_config.dnn.hidden = {48, 48};
  server_config.dnn.train.epochs = 200;
  ModelServer server(server_config);
  Rng rng(7);
  auto configs = SampleConfigs(StreamParamSpace(), 72,
                               SamplingStrategy::kLatinHypercube, &rng);
  CollectStreamTraces(engine, workload, configs, &server);

  SolverOptions options;
  options.workload_aware = false;  // 3 objectives; plain WUN
  options.frontier_points = 12;
  Udao optimizer(&server, options);

  // A day in the life of a news site: quiet night, morning peak, breaking
  // news spike, evening cool-down (expected load in thousand records/s).
  struct LoadPoint {
    const char* period;
    double load_krps;
  };
  const LoadPoint day[] = {{"02:00 night", 80},    {"07:00 ramp-up", 300},
                           {"09:00 peak", 700},    {"13:00 midday", 400},
                           {"15:30 breaking news", 1000},
                           {"21:00 evening", 200}};

  std::printf("%-22s %-10s %-8s %-14s %-12s\n", "period", "load(k/s)",
              "cores", "latency(s)", "opt time(s)");
  for (const LoadPoint& lp : day) {
    UdaoRequest request;
    request.workload_id = workload.id;
    request.space = &StreamParamSpace();
    // Objectives: minimize record latency, maximize throughput (must at
    // least carry the expected load), minimize cost in cores.
    ObjectiveSpec latency{.name = objectives::kLatency};
    ObjectiveSpec throughput{.name = objectives::kThroughput,
                             .minimize = false};
    throughput.lower = lp.load_krps;  // serve at least the incoming rate
    ObjectiveSpec cost{.name = objectives::kCostCores};
    request.objectives = {latency, throughput, cost};
    request.preference_weights = {0.4, 0.2, 0.4};

    auto rec = optimizer.Optimize(request);
    if (!rec.ok()) {
      std::printf("%-22s %-10.0f -- no feasible configuration (%s)\n",
                  lp.period, lp.load_krps,
                  rec.status().ToString().c_str());
      continue;
    }
    const StreamConf conf = StreamConf::FromRaw(rec->conf_raw);
    std::printf("%-22s %-10.0f %-8.0f %-14.2f %-12.2f\n", lp.period,
                lp.load_krps, conf.TotalCores(),
                rec->predicted_objectives[0], rec->seconds);
  }

  std::printf("\nComputing units scale with the load while latency stays "
              "bounded -- each decision comes from one optimizer call.\n");
  return 0;
}
