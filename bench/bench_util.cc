#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/check.h"
#include "common/random.h"
#include "model/analytic_models.h"
#include "moo/mogd.h"
#include "workload/trace_gen.h"

namespace udao {
namespace bench {

namespace {

// Options of the BenchMain run in flight; defaults when a helper is used
// outside of one (e.g. from a test).
BenchOptions g_options;

std::string GitSha() {
  // CI exports the exact commit; local builds fall back to the configure-time
  // sha baked in by bench/CMakeLists.txt (stale only until the next cmake).
  const char* env = std::getenv("UDAO_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
#ifdef UDAO_GIT_SHA
  return UDAO_GIT_SHA;
#else
  return "unknown";
#endif
}

ModelServerConfig ServerConfig(ModelKind kind) {
  ModelServerConfig cfg;
  cfg.kind = kind;
  cfg.dnn.hidden = {64, 64};
  cfg.dnn.train.epochs = g_options.quick ? 120 : 400;
  cfg.gp.hyper_opt_steps = g_options.quick ? 15 : 40;
  return cfg;
}

std::shared_ptr<const ObjectiveModel> MustGet(ModelServer* server,
                                              const std::string& workload,
                                              const std::string& objective) {
  auto model = server->GetModel(workload, objective);
  UDAO_CHECK(model.ok());
  // Learned models of physical quantities carry a non-negativity floor.
  return std::make_shared<NonNegativeModel>(*model);
}

}  // namespace

BenchProblem MakeBatchProblem(int job, int traces, ModelKind kind,
                              bool cost2) {
  BenchProblem bp;
  bp.batch = std::make_unique<BatchWorkload>(MakeTpcxbbWorkload(job));
  bp.workload_id = bp.batch->id;
  bp.server = std::make_unique<ModelServer>(ServerConfig(kind));
  SparkEngine engine;
  Rng rng(1000 + job);
  // The paper's offline sampling mix: space-filling plus BO-guided samples
  // that concentrate where latency is likely minimized, sharpening the model
  // in exactly the region MOO explores.
  auto configs = SampleConfigs(BatchParamSpace(), (2 * traces) / 3,
                               SamplingStrategy::kLatinHypercube, &rng);
  auto guided = BoGuidedConfigs(
      BatchParamSpace(), std::max(1, traces / 6),
      [&](const Vector& raw) { return engine.Latency(bp.batch->flow, raw); },
      &rng);
  configs.insert(configs.end(), guided.begin(), guided.end());
  // Ernest-style resource-profiling anchors: sweep the allocation axes with
  // the other knobs at defaults, so the model learns the latency-vs-cores
  // curve all the way into the starved corner.
  for (double execs : {2.0, 4.0, 8.0, 16.0, 28.0}) {
    for (double cores : {1.0, 4.0, 8.0}) {
      Vector raw = BatchParamSpace().Defaults();
      raw[1] = execs;
      raw[2] = cores;
      configs.push_back(raw);
    }
  }
  CollectBatchTraces(engine, *bp.batch, configs, bp.server.get());

  std::vector<ObjectiveSpec> objectives;
  objectives.push_back(ObjectiveSpec{
      objectives::kLatency,
      MustGet(bp.server.get(), bp.workload_id, objectives::kLatency)});
  if (cost2) {
    // cost2 mixes CPU-hour and IO cost, both learned (Expt 4).
    objectives.push_back(ObjectiveSpec{
        objectives::kCost2,
        MustGet(bp.server.get(), bp.workload_id, objectives::kCost2)});
  } else {
    // Cost in #cores is a certain function of the knobs: served analytically.
    objectives.push_back(
        ObjectiveSpec{objectives::kCostCores, MakeCostCoresModel()});
  }
  bp.problem =
      std::make_unique<MooProblem>(&BatchParamSpace(), std::move(objectives));
  return bp;
}

BenchProblem MakeStreamProblem(int job, int num_objectives, int traces,
                               ModelKind kind) {
  UDAO_CHECK(num_objectives == 2 || num_objectives == 3);
  BenchProblem bp;
  bp.stream = std::make_unique<StreamWorkload>(MakeStreamWorkload(job));
  bp.workload_id = bp.stream->id;
  bp.server = std::make_unique<ModelServer>(ServerConfig(kind));
  StreamEngine engine;
  Rng rng(2000 + job);
  auto configs = SampleConfigs(StreamParamSpace(), (2 * traces) / 3,
                               SamplingStrategy::kLatinHypercube, &rng);
  auto guided = BoGuidedConfigs(
      StreamParamSpace(), std::max(1, traces / 6),
      [&](const Vector& raw) {
        return engine.Run(bp.stream->profile, raw).record_latency_s;
      },
      &rng);
  configs.insert(configs.end(), guided.begin(), guided.end());
  // Resource/rate anchors covering the allocation and load axes.
  for (double execs : {2.0, 8.0, 16.0, 28.0}) {
    for (double rate : {100.0, 600.0, 1200.0}) {
      Vector raw = StreamParamSpace().Defaults();
      raw[4] = execs;
      raw[2] = rate;
      configs.push_back(raw);
    }
  }
  CollectStreamTraces(engine, *bp.stream, configs, bp.server.get());

  std::vector<ObjectiveSpec> objectives;
  objectives.push_back(ObjectiveSpec{
      objectives::kLatency,
      MustGet(bp.server.get(), bp.workload_id, objectives::kLatency)});
  objectives.push_back(ObjectiveSpec{
      objectives::kThroughput,
      MustGet(bp.server.get(), bp.workload_id, objectives::kThroughput),
      /*minimize=*/false});
  if (num_objectives == 3) {
    objectives.push_back(
        ObjectiveSpec{objectives::kCostCores, MakeStreamCostCoresModel()});
  }
  bp.problem =
      std::make_unique<MooProblem>(&StreamParamSpace(), std::move(objectives));
  return bp;
}

MogdConfig BenchMogd() {
  // One shared pool for every benchmark solve; solver configs point at it
  // rather than spawning threads per call.
  static ThreadPool pool(4);
  MogdConfig cfg;
  cfg.multistart = 6;
  cfg.max_iters = 100;
  cfg.pool = &pool;
  return cfg;
}

SolverOptions BenchSolverOptions() {
  SolverOptions options;
  options.pf.parallel = true;
  options.pf.mogd = BenchMogd();
  return options;
}

MetricBox ComputeBox(const MooProblem& problem) {
  MogdSolver solver(BenchMogd());
  const int k = problem.NumObjectives();
  std::vector<CoResult> plans;
  for (int j = 0; j < k; ++j) plans.push_back(solver.Minimize(problem, j));
  MetricBox box;
  box.utopia.resize(k);
  box.nadir.resize(k);
  for (int j = 0; j < k; ++j) {
    box.utopia[j] = plans[0].objectives[j];
    box.nadir[j] = plans[0].objectives[j];
    for (int a = 1; a < k; ++a) {
      box.utopia[j] = std::min(box.utopia[j], plans[a].objectives[j]);
      box.nadir[j] = std::max(box.nadir[j], plans[a].objectives[j]);
    }
    if (box.nadir[j] - box.utopia[j] < 1e-9) box.nadir[j] = box.utopia[j] + 1e-9;
  }
  return box;
}

MooRunResult RunMethod(const std::string& method, const MooProblem& problem,
                       int probes, const MetricBox& box) {
  if (method == "PF-AP" || method == "PF-AS") {
    PfConfig cfg;
    cfg.parallel = method == "PF-AP";
    cfg.mogd = BenchMogd();
    ProgressiveFrontier pf(&problem, cfg);
    MooRunResult out;
    // Expand incrementally so every snapshot's uncertain space is measured
    // with the same frontier-based metric (and shared box) as the other
    // methods -- PF's internal queue-volume measure is strictly harsher.
    int stalls = 0;
    int last_size = -1;
    for (int target = 1; target <= probes && stalls < 8; ++target) {
      const PfResult& r = pf.Run(target);
      MooSnapshot snap;
      snap.seconds = r.history.empty() ? 0.0 : r.history.back().seconds;
      snap.num_points = static_cast<int>(r.frontier.size());
      snap.uncertain_percent =
          box.valid() && !r.frontier.empty()
              ? UncertainSpacePercent(r.frontier, box.utopia, box.nadir)
              : 100.0;
      out.history.push_back(snap);
      stalls = snap.num_points == last_size ? stalls + 1 : 0;
      last_size = snap.num_points;
    }
    const PfResult& final_result = pf.result();
    out.frontier = final_result.frontier;
    out.seconds_total =
        final_result.history.empty() ? 0
                                     : final_result.history.back().seconds;
    return out;
  }
  if (method == "WS") {
    WsConfig cfg;
    cfg.metric_box = box;
    return RunWeightedSum(problem, probes, cfg);
  }
  if (method == "NC") {
    NcConfig cfg;
    cfg.metric_box = box;
    return RunNormalConstraints(problem, probes, cfg);
  }
  if (method == "Evo") {
    EvoConfig cfg;
    cfg.metric_box = box;
    return RunNsga2(problem, probes, cfg);
  }
  if (method == "qEHVI" || method == "PESM") {
    MoboConfig cfg;
    cfg.kind = method == "qEHVI" ? MoboConfig::Kind::kQehvi
                                 : MoboConfig::Kind::kPesm;
    cfg.metric_box = box;
    return RunMobo(problem, probes, cfg);
  }
  UDAO_CHECK(false);
  return MooRunResult{};
}

double TimeToFirstParetoSet(const MooRunResult& result) {
  for (const MooSnapshot& snap : result.history) {
    if (snap.uncertain_percent < 100.0 - 1e-9) return snap.seconds;
  }
  return std::numeric_limits<double>::infinity();
}

double UncertainAt(const MooRunResult& result, double seconds) {
  double value = 100.0;
  for (const MooSnapshot& snap : result.history) {
    if (snap.seconds <= seconds) {
      value = snap.uncertain_percent;
    } else {
      break;
    }
  }
  return value;
}

void PrintSeries(const std::string& title,
                 const std::vector<std::pair<double, double>>& series) {
  std::printf("# %s\n", title.c_str());
  for (const auto& [x, y] : series) std::printf("%.4f %.4f\n", x, y);
  std::printf("\n");
}

void PrintFrontier(const std::string& title,
                   const std::vector<MooPoint>& frontier) {
  std::printf("# %s (%zu points)\n", title.c_str(), frontier.size());
  for (const MooPoint& p : frontier) {
    for (size_t j = 0; j < p.objectives.size(); ++j) {
      std::printf("%s%.4f", j == 0 ? "" : " ", p.objectives[j]);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

bool FullScale() {
  const char* env = std::getenv("UDAO_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

const BenchOptions& CurrentBench() { return g_options; }

std::string BenchReportJson(const std::string& benchmark_name,
                            const BenchOptions& options, double wall_ms) {
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", wall_ms);
  std::string out = "{\n";
  out += "  \"benchmark\": \"" + benchmark_name + "\",\n";
  out += "  \"git_sha\": \"" + GitSha() + "\",\n";
  out += std::string("  \"config\": {\"quick\": ") +
         (options.quick ? "true" : "false") +
         ", \"full\": " + (options.full ? "true" : "false") +
         ", \"solver_fingerprint\": \"" +
         BenchSolverOptions().FingerprintHex() + "\"},\n";
  out += std::string("  \"wall_ms\": ") + wall + ",\n";
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : MetricsRegistry::Global().Counters()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "\"" + name + "\": " + std::to_string(value);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

int BenchMain(const char* benchmark_name, int argc, char** argv,
              const std::function<int(const BenchOptions&)>& body) {
  BenchOptions options;
  options.full = FullScale();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n",
                   benchmark_name);
      return 2;
    }
  }
  g_options = options;
  // Counters in the report cover exactly this run of this binary.
  MetricsRegistry::Global().Reset();

  const auto t0 = std::chrono::steady_clock::now();
  const int code = body(options);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", benchmark_name,
                   options.json_path.c_str());
      return code != 0 ? code : 1;
    }
    out << BenchReportJson(benchmark_name, options, wall_ms);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "%s: short write to %s\n", benchmark_name,
                   options.json_path.c_str());
      return code != 0 ? code : 1;
    }
    std::printf("wrote bench report: %s\n", options.json_path.c_str());
  }
  return code;
}

}  // namespace bench
}  // namespace udao
