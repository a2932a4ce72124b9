#ifndef UDAO_PERFBENCH_LAYERS_H_
#define UDAO_PERFBENCH_LAYERS_H_

// Per-layer measurement from outside the program: a timing decorator for
// objective models, fixed-size sweeps of the dispatched kernels and of the
// metrics registry, and readers over the registry's counters and histograms.
// Nothing here changes what the program computes.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "model/objective_model.h"

namespace udao {
namespace perfbench {

/// Calls, rows and busy nanoseconds of one batch entry point, summed over
/// every thread that called it.
struct CallStats {
  std::atomic<long long> calls{0};
  std::atomic<long long> rows{0};
  std::atomic<long long> ns{0};

  void Add(int batch_rows, long long busy_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    rows.fetch_add(batch_rows, std::memory_order_relaxed);
    ns.fetch_add(busy_ns, std::memory_order_relaxed);
  }
  void Reset() {
    calls.store(0);
    rows.store(0);
    ns.store(0);
  }
};

/// Counters shared by every TimedModel of one traced phase.
struct ModelLayerStats {
  CallStats predict;
  CallStats gradient;
  CallStats uncertainty;

  void Reset() {
    predict.Reset();
    gradient.Reset();
    uncertainty.Reset();
  }
};

/// Forwards every call to `base` and times the three batch entry points.
/// FuseIdentity forwards too, so the solve coalescer fuses decorated models
/// exactly as it fuses the models they wrap; results are bitwise those of
/// `base`.
class TimedModel : public ObjectiveModel {
 public:
  TimedModel(std::shared_ptr<const ObjectiveModel> base,
             ModelLayerStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  double Predict(const Vector& x) const override { return base_->Predict(x); }
  void PredictWithUncertainty(const Vector& x, double* mean,
                              double* stddev) const override {
    base_->PredictWithUncertainty(x, mean, stddev);
  }
  Vector InputGradient(const Vector& x) const override {
    return base_->InputGradient(x);
  }
  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  int input_dim() const override { return base_->input_dim(); }
  std::string Name() const override { return base_->Name(); }
  const void* FuseIdentity() const override { return base_->FuseIdentity(); }

 private:
  std::shared_ptr<const ObjectiveModel> base_;
  ModelLayerStats* stats_;
};

/// Nanoseconds per row of the active backend's layer_forward and gemm_nn at
/// the served model's 64x64 hidden shape, one entry per row count.
struct KernelSweep {
  std::vector<int> rows;
  std::vector<double> layer_forward_ns_per_row;
  std::vector<double> gemm_nn_ns_per_row;
};
KernelSweep SweepKernels(const std::vector<int>& rows, uint64_t seed);

/// Microseconds per row of a model's PredictBatch and GradientBatch on
/// random encoded points, one entry per row count.
struct ModelSweep {
  std::vector<int> rows;
  std::vector<double> predict_us_per_row;
  std::vector<double> gradient_us_per_row;
};
ModelSweep SweepModel(const ObjectiveModel& model, const std::vector<int>& rows,
                      uint64_t seed);

/// Nanoseconds per MetricsRegistry::AddCounter call on the global registry
/// (single thread, one metric name of serving-path length).
double AddCounterNs();

/// Reads of the global registry: a counter, and a histogram's sample count,
/// sum and mean (0 when it has no samples).
long long Counter(const std::string& name);
long long HistCount(const std::string& name);
double HistSum(const std::string& name);
double HistMean(const std::string& name);
/// Samples of an integer-valued histogram that equal exactly 1.
long long HistOnes(const std::string& name);

/// Median of a non-empty sample.
double Median(std::vector<double> v);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace perfbench
}  // namespace udao

#endif  // UDAO_PERFBENCH_LAYERS_H_
