// udao_cli -- command-line front end for the UDAO optimizer over the
// simulated Spark substrate.
//
//   udao_cli list [--stream]
//       Enumerate the benchmark workloads.
//   udao_cli simulate --job N [--set knob=value ...]
//       Run one batch workload under a configuration and print its metrics.
//   udao_cli trace --job N [--samples K] [--out DIR]
//       Collect training traces (optionally persisting them to DIR).
//   udao_cli frontier --job N [--points M] [--method PF-AP|PF-AS|WS|NC|Evo]
//       [--traces DIR]
//       Compute and print a Pareto frontier (latency vs cost in #cores).
//   udao_cli optimize --job N [--wl W --wc W] [--traces DIR] [--stage]
//       [--json]
//       End-to-end recommendation; deploys the result on the simulator.
//       --stage adds hierarchical per-stage knob refinement around the
//       chosen point; --json emits the self-describing recommendation
//       (knob names, per-stage overlay, stage confs) as one stable JSON
//       object on stdout.
//   udao_cli serve-sim --job N [--requests R] [--clients C]
//       [--ingest-every K] [--traces DIR] [--deadline-ms B]
//       [--max-queue-depth D] [--shed-policy reject|stale|degrade]
//       [--tenants T] [--zipf S] [--adaptive] [--adaptive-budget-ms B]
//       Closed-loop driver for the UdaoService serving layer: R requests
//       submitted through the ticketed Submit() surface with varying
//       preference weights, optionally ingesting one fresh run's traces
//       every K requests to exercise cache invalidation. The cache
//       invalidates once finetune_threshold (8) such runs make the served
//       latency model due for a fine-tune, so fewer than 8 ingests show no
//       invalidation (--requests 64 --ingest-every 4 shows some).
//       --deadline-ms gives every request a time budget (anytime solves
//       return degraded frontiers on expiry); together with
//       --max-queue-depth and --shed-policy it exercises overload control.
//       --tenants spreads traffic over T synthetic tenants under a zipf(S)
//       popularity law to drive the cross-request solve coalescer. Prints
//       cache, shed, degradation, and queue-wait counters. --adaptive turns
//       on stage-level tuning: requests carry the dataflow and ask for
//       per-stage refinement, and the final recommendation is deployed
//       through the engine's AQE-style adaptive run (boundary re-solves
//       against observed stage sizes under an --adaptive-budget-ms
//       per-boundary budget, routed through the service's coalescer) next
//       to a plain job-level deployment.
//
// Every command accepts --metrics-json PATH: after the command runs, the
// process-wide MetricsRegistry snapshot (counters, gauges, histograms,
// recent solve traces) is written there as JSON.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics_registry.h"
#include "model/analytic_models.h"
#include "model/checkpoint.h"
#include "moo/evo.h"
#include "moo/hierarchical.h"
#include "moo/normal_constraints.h"
#include "moo/progressive_frontier.h"
#include "moo/weighted_sum.h"
#include "serving/udao_service.h"
#include "spark/engine.h"
#include "tuning/udao.h"
#include "workload/streambench.h"
#include "workload/tpcxbb.h"
#include "workload/trace_gen.h"

namespace udao {
namespace {

// Minimal --key value / --flag parser; positionals collected separately.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        // insert_or_assign with an explicit std::string sidesteps a GCC 12
        // -Wrestrict false positive in string::operator=(const char*) that
        // -Werror would otherwise promote.
        if (key == "set" && i + 1 < argc) {
          sets_.push_back(argv[++i]);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_.insert_or_assign(key, std::string(argv[++i]));
        } else {
          values_.insert_or_assign(key, std::string("1"));
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }
  const std::vector<std::string>& sets() const { return sets_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> sets_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: udao_cli "
               "<list|simulate|trace|frontier|optimize|serve-sim> "
               "[options]\n"
               "  list      [--stream]\n"
               "  simulate  --job N [--set knob=value ...]\n"
               "  trace     --job N [--samples K] [--out DIR]\n"
               "  frontier  --job N [--points M] [--method PF-AP] "
               "[--traces DIR]\n"
               "  optimize  --job N [--wl W --wc W] [--traces DIR] "
               "[--stage] [--json]\n"
               "  serve-sim --job N [--requests R] [--clients C] "
               "[--ingest-every K] [--traces DIR] [--deadline-ms B] "
               "[--max-queue-depth D] [--shed-policy reject|stale|degrade] "
               "[--tenants T] [--zipf S] [--adaptive] "
               "[--adaptive-budget-ms B]\n"
               "all commands: [--metrics-json PATH] writes the "
               "MetricsRegistry snapshot after the run\n");
  return 2;
}

Vector ApplySets(const Args& args, const ParamSpace& space) {
  Vector raw = space.Defaults();
  for (const std::string& kv : args.sets()) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --set '%s' (need knob=value)\n", kv.c_str());
      std::exit(2);
    }
    const std::string name = kv.substr(0, eq);
    StatusOr<int> idx = space.IndexOf(name);
    if (!idx.ok()) {
      std::fprintf(stderr, "unknown knob '%s'; knobs are:\n", name.c_str());
      for (const ParamSpec& spec : space.specs()) {
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
      }
      std::exit(2);
    }
    raw[*idx] = std::atof(kv.substr(eq + 1).c_str());
  }
  Status valid = space.Validate(raw);
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    std::exit(2);
  }
  return raw;
}

int CmdList(const Args& args) {
  if (args.Has("stream")) {
    std::printf("%-5s %-10s %-22s\n", "job", "template", "profile");
    for (const StreamWorkload& w : MakeStreamWorkloads()) {
      std::printf("%-5s %-10d %-22s\n", w.id.c_str(), w.template_id,
                  w.profile.name.c_str());
    }
    return 0;
  }
  std::printf("%-5s %-10s %-9s %-10s %s\n", "job", "template", "variant",
              "class", "input");
  for (const BatchWorkload& w : MakeTpcxbbWorkloads()) {
    const char* wclass =
        w.flow.workload_class() == WorkloadClass::kSql      ? "SQL"
        : w.flow.workload_class() == WorkloadClass::kSqlUdf ? "SQL+UDF"
                                                            : "ML";
    std::printf("%-5s %-10d %-9d %-10s %.1f GB\n", w.id.c_str(),
                w.template_id, w.variant, wclass,
                w.flow.TotalInputBytes() / 1e9);
  }
  return 0;
}

int CmdSimulate(const Args& args) {
  const int job = args.GetInt("job", 0);
  if (job < 1 || job > kNumTpcxbbWorkloads) return Usage();
  BatchWorkload workload = MakeTpcxbbWorkload(job);
  const Vector conf = ApplySets(args, BatchParamSpace());
  SparkEngine engine;
  RuntimeMetrics m = engine.Run(workload.flow, conf);
  std::printf("workload %s (%s)\n", workload.id.c_str(),
              workload.flow.name().c_str());
  const auto& names = RuntimeMetrics::Names();
  const Vector values = m.ToVector();
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("  %-22s %.3f\n", names[i].c_str(), values[i]);
  }
  std::printf("  %-22s %.1f\n", "cost_cores", CostInCores(conf));
  std::printf("  %-22s %.4f\n", "cost_cpu_hour",
              CostInCpuHours(m.latency_s, conf));
  return 0;
}

int CmdTrace(const Args& args) {
  const int job = args.GetInt("job", 0);
  if (job < 1 || job > kNumTpcxbbWorkloads) return Usage();
  const int samples = args.GetInt("samples", 100);
  BatchWorkload workload = MakeTpcxbbWorkload(job);
  SparkEngine engine;
  ModelServer server;
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  auto configs = SampleConfigs(BatchParamSpace(), samples,
                               SamplingStrategy::kLatinHypercube, &rng);
  auto traces = CollectBatchTraces(engine, workload, configs, &server);
  std::printf("collected %zu traces for workload %s\n", traces.size(),
              workload.id.c_str());
  if (args.Has("out")) {
    Status saved = SaveModelServerData(
        server, {workload.id},
        {objectives::kLatency, objectives::kCostCores,
         objectives::kCostCpuHour, objectives::kCost2},
        args.Get("out", ""));
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("persisted to %s\n", args.Get("out", "").c_str());
  }
  return 0;
}

// Builds a model server for `workload`: reloading persisted traces from
// --traces when given, sampling fresh ones otherwise.
// (ModelServer owns a mutex and is neither movable nor copyable, so the
// factory hands back a unique_ptr.)
std::unique_ptr<ModelServer> MakeServer(const Args& args,
                                        const BatchWorkload& workload,
                                        const SparkEngine& engine) {
  auto server = std::make_unique<ModelServer>();
  if (args.Has("traces")) {
    Status loaded = LoadModelServerData(args.Get("traces", ""), server.get());
    if (!loaded.ok()) {
      std::fprintf(stderr, "trace load failed: %s\n",
                   loaded.ToString().c_str());
      std::exit(1);
    }
    if (server->HasTraces(workload.id, objectives::kLatency)) return server;
    std::fprintf(stderr,
                 "no traces for workload %s in %s; sampling fresh ones\n",
                 workload.id.c_str(), args.Get("traces", "").c_str());
  }
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  auto configs = SampleConfigs(BatchParamSpace(),
                               args.GetInt("samples", 120),
                               SamplingStrategy::kLatinHypercube, &rng);
  CollectBatchTraces(engine, workload, configs, server.get());
  return server;
}

// Solver performance counters (SolvePerf accumulated across a PF run).
void PrintSolvePerf(const SolvePerf& perf, int probes) {
  std::printf("solver: %d probes, %lld model evals in %lld batches "
              "(avg batch %.1f), eval %.3f s of %.3f s solve\n",
              probes, perf.model_evals, perf.batch_calls, perf.AvgBatch(),
              perf.eval_seconds, perf.solve_seconds);
}

int CmdFrontier(const Args& args) {
  const int job = args.GetInt("job", 0);
  if (job < 1 || job > kNumTpcxbbWorkloads) return Usage();
  BatchWorkload workload = MakeTpcxbbWorkload(job);
  SparkEngine engine;
  std::unique_ptr<ModelServer> server = MakeServer(args, workload, engine);

  auto latency = server->GetModel(workload.id, objectives::kLatency);
  if (!latency.ok()) {
    std::fprintf(stderr, "%s\n", latency.status().ToString().c_str());
    return 1;
  }
  MooProblem problem(
      &BatchParamSpace(),
      {ObjectiveSpec{objectives::kLatency,
                     std::make_shared<NonNegativeModel>(*latency)},
       ObjectiveSpec{objectives::kCostCores, MakeCostCoresModel()}});

  const int points = args.GetInt("points", 15);
  const std::string method = args.Get("method", "PF-AP");
  std::vector<MooPoint> frontier;
  if (method == "PF-AP" || method == "PF-AS") {
    PfConfig cfg;
    cfg.parallel = method == "PF-AP";
    ProgressiveFrontier pf(&problem, cfg);
    const PfResult& res = pf.Run(points);
    frontier = res.frontier;
    PrintSolvePerf(res.perf, res.probes);
  } else if (method == "WS") {
    frontier = RunWeightedSum(problem, points).frontier;
  } else if (method == "NC") {
    frontier = RunNormalConstraints(problem, points).frontier;
  } else if (method == "Evo") {
    frontier = RunNsga2(problem, points).frontier;
  } else {
    std::fprintf(stderr, "unknown method %s\n", method.c_str());
    return 2;
  }

  std::printf("frontier of workload %s via %s (%zu points):\n",
              workload.id.c_str(), method.c_str(), frontier.size());
  std::printf("%-14s %-12s %s\n", "latency(s)", "cores", "configuration");
  for (const MooPoint& p : frontier) {
    const Vector raw = BatchParamSpace().Decode(p.conf_encoded);
    const SparkConf conf = SparkConf::FromRaw(raw);
    std::printf("%-14.2f %-12.0f %.0fx%.0f cores, parallelism %.0f, "
                "partitions %.0f, mem %.0fG\n",
                p.objectives[0], p.objectives[1], conf.executor_instances,
                conf.executor_cores, conf.parallelism,
                conf.shuffle_partitions, conf.executor_memory_gb);
  }
  return 0;
}

int CmdOptimize(const Args& args) {
  const int job = args.GetInt("job", 0);
  if (job < 1 || job > kNumTpcxbbWorkloads) return Usage();
  BatchWorkload workload = MakeTpcxbbWorkload(job);
  SparkEngine engine;
  std::unique_ptr<ModelServer> server = MakeServer(args, workload, engine);

  Udao optimizer(server.get());
  UdaoRequest request;
  request.workload_id = workload.id;
  request.space = &BatchParamSpace();
  request.objectives = {{.name = objectives::kLatency},
                        {.name = objectives::kCostCores}};
  request.preference_weights = {args.GetDouble("wl", 0.5),
                                args.GetDouble("wc", 0.5)};
  auto rec = optimizer.Optimize(request);
  if (!rec.ok()) {
    std::fprintf(stderr, "%s\n", rec.status().ToString().c_str());
    return 1;
  }
  if (args.Has("stage")) {
    // Hierarchical refinement around the chosen point: per-stage knobs
    // re-solved per subproblem against the engine's stage cost model.
    HierarchicalMoo hmoo(&engine, HierarchicalConfig{});
    const std::vector<StageProfile> stages = engine.PlanStages(
        workload.flow, rec->conf_raw, /*planner_estimates=*/true);
    auto overlay = hmoo.ResolveStages(rec->conf_raw, stages, 0,
                                      workload.flow.workload_class(),
                                      StopToken());
    if (!overlay.ok()) {
      std::fprintf(stderr, "stage refinement failed: %s\n",
                   overlay.status().ToString().c_str());
      return 1;
    }
    rec->stage_overlay = std::move(overlay).value();
    rec->stage_confs.reserve(stages.size());
    for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
      rec->stage_confs.push_back(rec->stage_overlay.Resolve(s, rec->conf_raw));
    }
  }
  if (args.Has("json")) {
    std::printf("%s\n", RecommendationJson(*rec).c_str());
    return 0;
  }
  std::printf("recommended configuration for workload %s "
              "(weights %.2f/%.2f, %.2f s to optimize):\n",
              workload.id.c_str(), request.preference_weights[0],
              request.preference_weights[1], rec->seconds);
  PrintSolvePerf(rec->frontier.perf, rec->frontier.probes);
  for (int i = 0; i < BatchParamSpace().NumParams(); ++i) {
    std::printf("  %-45s %g\n", BatchParamSpace().spec(i).name.c_str(),
                rec->conf_raw[i]);
  }
  std::printf("predicted: latency %.1f s at %.0f cores\n",
              rec->predicted_objectives[0], rec->predicted_objectives[1]);
  const double measured = engine.Latency(workload.flow, rec->conf_raw);
  const double defaults =
      engine.Latency(workload.flow, BatchParamSpace().Defaults());
  std::printf("deployed on the simulator: %.1f s (defaults: %.1f s)\n",
              measured, defaults);
  if (!rec->stage_overlay.empty()) {
    const RuntimeMetrics staged = engine.RunWithOverlay(
        workload.flow, rec->conf_raw, rec->stage_overlay);
    std::printf("with per-stage overrides (%zu stages tuned): %.1f s\n",
                rec->stage_overlay.overrides.size(), staged.latency_s);
  }
  return 0;
}

// Closed-loop simulated request driver against the serving layer: submits
// --requests optimizations through the ticketed Submit() surface (preference
// weights sweeping the trade-off curve, so after the first cold solve the
// rest are weight-only cache hits), optionally ingesting fresh simulator
// traces every --ingest-every requests to force generation-based
// invalidations (every finetune_threshold-th ingest, and each one after it
// until a request fine-tunes the model). With --tenants > 1, traffic spreads
// over synthetic tenants under a zipf(--zipf) popularity law -- all sharing
// the job's models but carrying distinct workload ids -- which drives the
// cross-request solve coalescer the way concurrent multi-tenant traffic does
// in production.
int CmdServeSim(const Args& args) {
  const int job = args.GetInt("job", 0);
  if (job < 1 || job > kNumTpcxbbWorkloads) return Usage();
  BatchWorkload workload = MakeTpcxbbWorkload(job);
  SparkEngine engine;
  std::unique_ptr<ModelServer> server = MakeServer(args, workload, engine);

  const bool adaptive = args.Has("adaptive");
  const double adaptive_budget_ms = args.GetDouble("adaptive-budget-ms", 10.0);

  UdaoServiceConfig cfg;
  cfg.admission_threads = args.GetInt("clients", 4);
  cfg.max_queue_depth = args.GetInt("max-queue-depth", 0);
  if (adaptive) cfg.engine = &engine;
  const std::string shed = args.Get("shed-policy", "reject");
  if (shed == "reject") {
    cfg.shed_policy = ShedPolicy::kReject;
  } else if (shed == "stale") {
    cfg.shed_policy = ShedPolicy::kServeStaleCache;
  } else if (shed == "degrade") {
    cfg.shed_policy = ShedPolicy::kDegrade;
  } else {
    std::fprintf(stderr, "unknown --shed-policy '%s' "
                 "(want reject|stale|degrade)\n", shed.c_str());
    return 2;
  }
  UdaoService service(server.get(), cfg);

  const int requests = args.GetInt("requests", 32);
  const int ingest_every = args.GetInt("ingest-every", 0);
  const double deadline_ms = args.GetDouble("deadline-ms", 0.0);
  const int tenants = args.GetInt("tenants", 1);
  const double zipf = args.GetDouble("zipf", 1.1);
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)) + 1);

  // Multi-tenant mode: tenants share the job's trained models (resolved once
  // up front, passed through as explicit models) under distinct workload ids,
  // with popularity following a zipf law -- hot tenants collapse into the
  // coalescer's dedup/memo path, the tail exercises cold solves.
  std::vector<ObjectiveSpec> resolved_objectives;
  std::vector<double> tenant_cdf;
  if (tenants > 1) {
    Udao resolver(server.get(), cfg.udao);
    UdaoRequest proto;
    proto.workload_id = workload.id;
    proto.space = &BatchParamSpace();
    proto.objectives = {{.name = objectives::kLatency},
                        {.name = objectives::kCostCores}};
    proto.preference_weights = {0.5, 0.5};
    auto resolved = resolver.ResolveObjectives(proto);
    if (!resolved.ok()) {
      std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
      return 1;
    }
    resolved_objectives = std::move(*resolved);
    double mass = 0.0;
    for (int t = 0; t < tenants; ++t) {
      mass += 1.0 / std::pow(static_cast<double>(t + 1), zipf);
      tenant_cdf.push_back(mass);
    }
    for (double& c : tenant_cdf) c /= mass;
  }

  int failed = 0;
  int degraded = 0;
  double service_seconds = 0;
  double queue_wait_ms = 0;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RequestTicket> tickets;
  tickets.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    UdaoRequest request;
    request.workload_id = workload.id;
    request.space = &BatchParamSpace();
    if (tenants > 1) {
      const double u = rng.Uniform();
      const int t = static_cast<int>(
          std::lower_bound(tenant_cdf.begin(), tenant_cdf.end(), u) -
          tenant_cdf.begin());
      request.workload_id += "#t" + std::to_string(std::min(t, tenants - 1));
      request.objectives = resolved_objectives;
    } else {
      request.objectives = {{.name = objectives::kLatency},
                            {.name = objectives::kCostCores}};
    }
    const double wl = 0.1 + 0.8 * (i % 9) / 8.0;
    request.preference_weights = {wl, 1.0 - wl};
    if (adaptive) {
      request.flow = &workload.flow;
      request.options.adaptive.granularity = AdaptiveGranularity::kStage;
      request.options.adaptive.resolve_budget_ms = adaptive_budget_ms;
    }
    if (deadline_ms > 0) {
      // Each request's budget starts at submission: queue wait eats it,
      // which is exactly what makes the queue-deadline shed path fire
      // under overload.
      request.options.deadline = Deadline::AfterMs(deadline_ms);
    }
    tickets.push_back(service.Submit(request));
    if (ingest_every > 0 && (i + 1) % ingest_every == 0) {
      // A fresh run lands while requests are in flight: run the simulator on
      // a sampled configuration and ingest its traces. Once finetune_threshold
      // runs have landed since the served latency model's last (re)train, the
      // model is due: the ingest bumps the workload generation, invalidating
      // the cached frontier, and the next miss pays for the fine-tune.
      const std::vector<Vector> configs = {BatchParamSpace().Sample(&rng)};
      CollectBatchTraces(engine, workload, configs, server.get());
    }
  }
  std::optional<UdaoRecommendation> last_ok;
  for (RequestTicket& ticket : tickets) {
    auto rec = ticket.Wait();
    if (rec.ok()) {
      service_seconds += rec->seconds;
      queue_wait_ms += rec->queue_wait_ms;
      if (rec->degraded) ++degraded;
      last_ok = std::move(*rec);
    } else {
      ++failed;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const UdaoServiceStats s = service.stats();
  std::printf("served %d requests on %d admission workers in %.2f s "
              "(%.1f req/s, %d failed)\n",
              requests, cfg.admission_threads, wall_s,
              wall_s > 0 ? requests / wall_s : 0.0, failed);
  std::printf("cache: %lld hits, %lld misses, %lld invalidations, "
              "%lld evictions (%d resident)\n",
              s.cache_hits, s.cache_misses, s.invalidations, s.evictions,
              service.CacheSize());
  std::printf("overload: %lld sheds, %lld degraded, %lld deadline-exceeded "
              "(policy %s, max depth %d)\n",
              s.sheds, s.degraded, s.deadline_exceeded, shed.c_str(),
              cfg.max_queue_depth);
  const long long ok = s.requests - s.errors;
  std::printf("mean in-service time: %.2f ms, mean queue wait: %.2f ms\n",
              ok > 0 ? 1e3 * service_seconds / ok : 0.0,
              ok > 0 ? queue_wait_ms / ok : 0.0);

  // Adaptive deployment: take the last successful recommendation and run it
  // through the engine's AQE-style loop, re-solving remaining stages at each
  // boundary against the observed (runtime-true) stage sizes via the
  // service's coalesced stage resolver, next to the plain job-level run.
  if (adaptive && last_ok.has_value()) {
    AdaptiveRunOptions opts;
    opts.overlay = last_ok->stage_overlay;
    opts.resolve_budget_ms = adaptive_budget_ms;
    const Vector base = last_ok->conf_raw;
    const WorkloadClass wclass = workload.flow.workload_class();
    opts.resolver = [&service, &base, wclass](const RuntimeObservation& obs,
                                              const Deadline& budget) {
      std::vector<StageProfile> stages = obs.completed;
      stages.insert(stages.end(), obs.remaining.begin(), obs.remaining.end());
      return service.ResolveStages(base, stages, obs.next_stage, wclass,
                                   StopToken(budget, CancellationToken()));
    };
    const AdaptiveRunResult ar =
        engine.RunAdaptive(workload.flow, base, opts);
    const RuntimeMetrics flat = engine.Run(workload.flow, base);
    std::printf("adaptive deployment: %.1f s vs %.1f s job-level "
                "(%d boundaries, %d applied, %d fallbacks, budget %.1f ms)\n",
                ar.metrics.latency_s, flat.latency_s, ar.boundaries,
                ar.applied, ar.fallbacks, adaptive_budget_ms);
  }
  // Under overload control, shed errors are the contract working as designed
  // (the wait loop above already guarantees every request got a response),
  // so only the no-deadline configuration treats failures as a bad exit.
  const bool shedding_expected = deadline_ms > 0 || cfg.max_queue_depth > 0;
  return (shedding_expected || failed == 0) ? 0 : 1;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "list") return CmdList(args);
  if (command == "simulate") return CmdSimulate(args);
  if (command == "trace") return CmdTrace(args);
  if (command == "frontier") return CmdFrontier(args);
  if (command == "optimize") return CmdOptimize(args);
  if (command == "serve-sim") return CmdServeSim(args);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Args args(argc, argv);
  int rc = Dispatch(command, args);
  if (args.Has("metrics-json")) {
    const std::string path = args.Get("metrics-json", "");
    std::ofstream out(path);
    out << MetricsRegistry::Global().SnapshotJson() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed to write metrics snapshot to %s\n",
                   path.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("wrote metrics snapshot: %s\n", path.c_str());
    }
  }
  return rc;
}

}  // namespace
}  // namespace udao

int main(int argc, char** argv) { return udao::Main(argc, argv); }
