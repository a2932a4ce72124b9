#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/metrics_registry.h"
#include "common/random.h"
#include "nn/kernels.h"

namespace udao {
namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

long long NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// Median over `reps` timings of `fn` repeated until each timing spans at
// least `min_ns`, in nanoseconds per call.
template <typename Fn>
double NsPerCall(Fn fn, int reps, long long min_ns) {
  long long iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    if (NsSince(t0) >= min_ns) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (long long i = 0; i < iters; ++i) fn();
    per_call.push_back(static_cast<double>(NsSince(t0)) / iters);
  }
  return Median(per_call);
}

}  // namespace

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void TimedModel::PredictBatch(const Matrix& x, Vector* out) const {
  const auto t0 = Clock::now();
  base_->PredictBatch(x, out);
  stats_->predict.Add(x.rows(), NsSince(t0));
}

void TimedModel::GradientBatch(const Matrix& x, Matrix* grads,
                               Vector* values) const {
  const auto t0 = Clock::now();
  base_->GradientBatch(x, grads, values);
  stats_->gradient.Add(x.rows(), NsSince(t0));
}

void TimedModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                             Vector* stddev) const {
  const auto t0 = Clock::now();
  base_->PredictWithUncertaintyBatch(x, mean, stddev);
  stats_->uncertainty.Add(x.rows(), NsSince(t0));
}

KernelSweep SweepKernels(const std::vector<int>& rows, uint64_t seed) {
  constexpr int kWidth = 64;  // hidden width of the served DNN models
  const kernels::KernelTable* table = kernels::ActiveTable();
  const int max_rows = *std::max_element(rows.begin(), rows.end());
  Rng rng(seed);
  auto fill = [&](size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Uniform(-1.0, 1.0);
    return v;
  };
  const std::vector<double> in = fill(static_cast<size_t>(max_rows) * kWidth);
  const std::vector<double> w = fill(static_cast<size_t>(kWidth) * kWidth);
  const std::vector<double> bias = fill(kWidth);
  std::vector<double> out(static_cast<size_t>(max_rows) * kWidth);

  KernelSweep sweep;
  sweep.rows = rows;
  for (int r : rows) {
    const double fwd = NsPerCall(
        [&] {
          table->layer_forward(in.data(), r, kWidth, w.data(), bias.data(),
                               kWidth, kernels::Fused::kBiasRelu, out.data());
        },
        5, 2'000'000);
    const double gemm = NsPerCall(
        [&] {
          table->gemm_nn(in.data(), r, kWidth, w.data(), kWidth, out.data());
        },
        5, 2'000'000);
    sweep.layer_forward_ns_per_row.push_back(fwd / r);
    sweep.gemm_nn_ns_per_row.push_back(gemm / r);
  }
  return sweep;
}

ModelSweep SweepModel(const ObjectiveModel& model, const std::vector<int>& rows,
                      uint64_t seed) {
  const int max_rows = *std::max_element(rows.begin(), rows.end());
  Rng rng(seed);
  Matrix all(max_rows, model.input_dim());
  for (double& v : all.data()) v = rng.Uniform();
  ModelSweep sweep;
  sweep.rows = rows;
  for (int r : rows) {
    Matrix x(r, model.input_dim());
    std::copy(all.data().begin(), all.data().begin() + x.data().size(),
              x.data().begin());
    Vector values;
    Matrix grads;
    const double predict =
        NsPerCall([&] { model.PredictBatch(x, &values); }, 5, 2'000'000);
    const double gradient = NsPerCall(
        [&] { model.GradientBatch(x, &grads, &values); }, 5, 2'000'000);
    sweep.predict_us_per_row.push_back(predict / 1e3 / r);
    sweep.gradient_us_per_row.push_back(gradient / 1e3 / r);
  }
  return sweep;
}

double AddCounterNs() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string name = "udao.perfbench.add_counter_probe";
  return NsPerCall([&] { registry.AddCounter(name, 1); }, 5, 2'000'000);
}

long long Counter(const std::string& name) {
  return MetricsRegistry::Global().CounterValue(name);
}

long long HistCount(const std::string& name) {
  return MetricsRegistry::Global().HistogramValue(name).count;
}

double HistSum(const std::string& name) {
  return MetricsRegistry::Global().HistogramValue(name).sum;
}

double HistMean(const std::string& name) {
  const HistogramSnapshot h = MetricsRegistry::Global().HistogramValue(name);
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

long long HistOnes(const std::string& name) {
  const HistogramSnapshot h = MetricsRegistry::Global().HistogramValue(name);
  if (h.count == 0) return 0;
  // Bucket [1, 2) holds exactly the samples equal to 1 of an integer-valued
  // histogram.
  return h.buckets[static_cast<size_t>(MetricsRegistry::BucketIndex(1.0))];
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
}  // namespace udao
