// Micro-benchmarks (google-benchmark) for the hot kernels behind UDAO's
// few-seconds MOO budget: Pareto filtering, hypervolume, GP inference and
// fitting, MLP forward/backward, MOGD constrained solves, and the execution
// simulator itself.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "model/gp_model.h"
#include "moo/mogd.h"
#include "moo/pareto.h"
#include "nn/mlp.h"
#include "spark/engine.h"
#include "workload/tpcxbb.h"

namespace udao {
namespace {

std::vector<MooPoint> RandomCloud(int n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<MooPoint> points;
  points.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vector f(k);
    for (double& v : f) v = rng.Uniform();
    points.push_back(MooPoint{std::move(f), {}});
  }
  return points;
}

void BM_ParetoFilter(benchmark::State& state) {
  auto cloud = RandomCloud(static_cast<int>(state.range(0)), 2, 1);
  for (auto _ : state) {
    auto out = ParetoFilter(cloud);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ParetoFilter)->Arg(64)->Arg(256)->Arg(1024);

void BM_Hypervolume2D(benchmark::State& state) {
  auto cloud = RandomCloud(static_cast<int>(state.range(0)), 2, 2);
  std::vector<Vector> objs;
  for (const auto& p : cloud) objs.push_back(p.objectives);
  const Vector ref = {1.5, 1.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DominatedHypervolume(objs, ref));
  }
}
BENCHMARK(BM_Hypervolume2D)->Arg(64)->Arg(1024);

void BM_Hypervolume3D(benchmark::State& state) {
  auto cloud = RandomCloud(static_cast<int>(state.range(0)), 3, 3);
  std::vector<Vector> objs;
  for (const auto& p : cloud) objs.push_back(p.objectives);
  const Vector ref = {1.5, 1.5, 1.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DominatedHypervolume(objs, ref));
  }
}
BENCHMARK(BM_Hypervolume3D)->Arg(64)->Arg(256);

void BM_MlpForward(benchmark::State& state) {
  Rng rng(4);
  MlpConfig cfg;
  cfg.layer_sizes = {12, 128, 128, 128, 128, 1};  // the paper's largest DNN
  Mlp mlp(cfg, &rng);
  Matrix x(1, 12, 0.5);
  Vector out;
  for (auto _ : state) {
    mlp.PredictBatch(x, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MlpForward);

void BM_MlpInputGradient(benchmark::State& state) {
  Rng rng(5);
  MlpConfig cfg;
  cfg.layer_sizes = {12, 128, 128, 128, 128, 1};
  Mlp mlp(cfg, &rng);
  Matrix x(1, 12, 0.5);
  Matrix grad;
  for (auto _ : state) {
    mlp.InputGradientBatch(x, &grad);
    benchmark::DoNotOptimize(grad);
  }
}
BENCHMARK(BM_MlpInputGradient);

void BM_GpFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  Matrix x(n, 12);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 12; ++c) x(i, c) = rng.Uniform();
    y[i] = std::sin(3 * x(i, 0)) + x(i, 1);
  }
  GpConfig cfg;
  cfg.hyper_opt_steps = 20;
  for (auto _ : state) {
    auto gp = GpModel::Fit(x, y, cfg);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpFit)->Arg(32)->Arg(64);

void BM_GpPredict(benchmark::State& state) {
  Rng rng(7);
  Matrix x(64, 12);
  Vector y(64);
  for (int i = 0; i < 64; ++i) {
    for (int c = 0; c < 12; ++c) x(i, c) = rng.Uniform();
    y[i] = x(i, 0);
  }
  GpConfig cfg;
  cfg.hyper_opt_steps = 0;
  auto gp = GpModel::Fit(x, y, cfg);
  Vector probe(12, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*gp)->Predict(probe));
  }
}
BENCHMARK(BM_GpPredict);

void BM_EngineRun(benchmark::State& state) {
  SparkEngine engine;
  BatchWorkload w = MakeTpcxbbWorkload(static_cast<int>(state.range(0)));
  Vector conf = BatchParamSpace().Defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(w.flow, conf));
  }
}
BENCHMARK(BM_EngineRun)->Arg(2)->Arg(9)->Arg(30);

void BM_MogdSolveCo(benchmark::State& state) {
  // A single constrained solve over an analytic problem, the PF inner loop.
  Rng rng(8);
  MlpConfig net;
  net.layer_sizes = {12, 64, 64, 1};
  auto mlp = std::make_shared<Mlp>(net, &rng);
  auto latency = std::make_shared<CallableModel>(
      "lat", 12,
      [mlp](const Matrix& x, Vector* out) { mlp->PredictBatch(x, out); },
      [mlp](const Matrix& x, Matrix* grads, Vector* values) {
        mlp->InputGradientBatch(x, grads, values);
      });
  auto cost = std::make_shared<CallableModel>(
      "cost", 12, [](const Vector& x) { return x[1] * 26 + x[2] * 7 + 3; },
      [](const Vector& x) {
        Vector g(12, 0.0);
        g[1] = 26;
        g[2] = 7;
        return g;
      });
  static const ParamSpace& space = BatchParamSpace();
  MooProblem problem(&space, {ObjectiveSpec{"lat", latency},
                              ObjectiveSpec{"cost", cost}});
  MogdConfig cfg;
  cfg.multistart = 6;
  cfg.max_iters = 100;
  MogdSolver solver(cfg);
  CoProblem co;
  co.target = 0;
  co.lower = {-10.0, 3.0};
  co.upper = {10.0, 20.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.SolveCo(problem, co));
  }
}
BENCHMARK(BM_MogdSolveCo);

}  // namespace
}  // namespace udao

// Custom main instead of BENCHMARK_MAIN(): BenchMain owns --quick / --json
// and the report; everything else is forwarded to google-benchmark. Quick
// mode trims the heavy fits/solves and the repeat counts.
int main(int argc, char** argv) {
  return udao::bench::BenchMain(
      "bench_micro", argc, argv, [argc, argv](
                                     const udao::bench::BenchOptions& o) {
        std::vector<char*> fwd;
        fwd.push_back(argv[0]);
        for (int i = 1; i < argc; ++i) {
          const std::string arg = argv[i];
          if (arg == "--quick") continue;
          if (arg == "--json") {
            ++i;  // skip the path operand
            continue;
          }
          fwd.push_back(argv[i]);
        }
        static std::string quick_filter =
            "BM_ParetoFilter/64|BM_Hypervolume2D/64|BM_MlpForward|"
            "BM_GpPredict|BM_EngineRun/9|BM_MogdSolveCo";
        static std::string filter_flag =
            "--benchmark_filter=" + quick_filter;
        static std::string min_time_flag = "--benchmark_min_time=0.05";
        if (o.quick) {
          fwd.push_back(filter_flag.data());
          fwd.push_back(min_time_flag.data());
        }
        int fwd_argc = static_cast<int>(fwd.size());
        benchmark::Initialize(&fwd_argc, fwd.data());
        if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) {
          return 1;
        }
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
      });
}
