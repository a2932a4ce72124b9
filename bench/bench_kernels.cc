// Micro-benchmark of the dispatched dense kernels (nn/kernels.h): a
// batch-size sweep of PredictBatch and InputGradientBatch per kernel
// backend, on the paper's 4x128 ReLU latency-model topology and on the
// 12-64-64-1 ReLU model the service trains and serves. This is the shape
// MOGD's lockstep descent actually runs -- the multistart batch is the row
// count (8 in the service) -- so the scalar-vs-avx2 columns here are the
// microscopic version of the bench_mogd_solver end-to-end speedup.
//
// Fixed seed (42) and a deterministic input sweep: rerunning the binary
// re-times identical work, and the arena counters in the JSON report show
// whether steady-state iterations allocate (they must not).
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "nn/kernels.h"
#include "nn/mlp.h"

#include "bench_util.h"

namespace {

using namespace udao;
using namespace udao::bench;
using Clock = std::chrono::steady_clock;

// Repetitions chosen per batch so each cell runs long enough to time
// stably: roughly constant total rows per cell.
int RepsFor(int batch, bool quick) {
  const int target_rows = quick ? 1 << 13 : 1 << 16;
  return std::max(3, target_rows / batch);
}

double SecondsOf(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void SweepBackend(kernels::Backend backend, const Mlp& mlp,
                  const std::vector<int>& batches, bool quick) {
  kernels::ScopedBackendForTesting scoped(backend);
  std::printf("--- backend: %s ---\n",
              kernels::TableForBackend(backend)->name);
  std::printf("%-8s %-10s %-16s %-16s %-14s\n", "batch", "reps",
              "predict Mrows/s", "gradient Mrows/s", "arena KiB");
  Rng rng(42);
  for (const int batch : batches) {
    Matrix x(batch, mlp.input_dim());
    for (double& v : x.data()) v = rng.Uniform();
    const int reps = RepsFor(batch, quick);
    Vector values;
    Matrix grads;
    // Warmup engages the arena's steady state before timing.
    mlp.PredictBatch(x, &values);
    mlp.InputGradientBatch(x, &grads, &values);
    const double predict_s = SecondsOf([&] {
      for (int r = 0; r < reps; ++r) mlp.PredictBatch(x, &values);
    });
    const double gradient_s = SecondsOf([&] {
      for (int r = 0; r < reps; ++r) mlp.InputGradientBatch(x, &grads);
    });
    const double rows = static_cast<double>(batch) * reps;
    std::printf("%-8d %-10d %-16.2f %-16.2f %-14zu\n", batch, reps,
                rows / predict_s / 1e6, rows / gradient_s / 1e6,
                kernels::KernelArena::ThreadLocal().reserved_bytes() / 1024);
  }
  std::printf("\n");
}

// Sweeps one ReLU model of the given layer sizes under every backend.
void SweepModel(const char* title, const std::vector<int>& layer_sizes,
                const std::vector<int>& batches, bool quick) {
  MlpConfig config;
  config.layer_sizes = layer_sizes;
  Rng rng(42);
  const Mlp mlp(config, &rng);
  std::printf("=== dispatched kernel sweep, %s ===\n\n", title);
  SweepBackend(kernels::Backend::kScalar, mlp, batches, quick);
  if (kernels::CpuSupportsAvx2()) {
    SweepBackend(kernels::Backend::kAvx2, mlp, batches, quick);
  } else {
    std::printf("(no AVX2 on this host; scalar backend only)\n\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain("bench_kernels", argc, argv, [](const BenchOptions& o) {
    // The paper's largest model: 12 inputs, 4 hidden ReLU layers of 128.
    SweepModel("12-128x4-1 ReLU MLP (paper)", {12, 128, 128, 128, 128, 1},
               o.quick ? std::vector<int>{1, 16, 256, 1024}
                       : std::vector<int>{1, 4, 16, 64, 256, 1024, 4096},
               o.quick);
    // The model the service serves (MlpModelConfig's default 64x64 hidden
    // layers over 12 encoded knobs), at one row, MOGD's 8-start batch, and
    // a fused batch of 8 problems.
    SweepModel("12-64-64-1 ReLU MLP (served)", {12, 64, 64, 1}, {1, 8, 64},
               o.quick);
    return 0;
  });
}
