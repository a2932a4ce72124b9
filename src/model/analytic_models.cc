#include "model/analytic_models.h"

#include <cmath>

#include "common/check.h"

namespace udao {

namespace {

// Numerically safe softplus; smooth stand-in for max(0, v).
double Softplus(double v, double beta = 1.0) {
  const double bv = beta * v;
  if (bv > 30) return v;
  return std::log1p(std::exp(bv)) / beta;
}

// Smooth min via soft clipping: smin(v, cap) = cap - softplus(cap - v).
double SoftMin(double v, double cap, double beta = 1.0) {
  return cap - Softplus(cap - v, beta);
}

// Denormalizes one encoded [0,1] coordinate to its knob range *without*
// rounding, keeping the model smooth in the relaxed variables.
double Denorm(const ParamSpec& spec, double u) {
  const double c = std::min(1.0, std::max(0.0, u));
  return spec.lo + c * (spec.hi - spec.lo);
}

// The closed forms below are written over a raw point pointer, so each
// model's batch form is one pass over the row-major batch.

double BatchLatencyAt(const AnalyticWorkload& w, const ParamSpace& space,
                      const double* x) {
  // Encoded layout of BatchParamSpace(): all scalar knobs, one dim each.
  const double parallelism = Denorm(space.spec(0), x[0]);
  const double instances = Denorm(space.spec(1), x[1]);
  const double cores_per_exec = Denorm(space.spec(2), x[2]);
  const double mem_gb = Denorm(space.spec(3), x[3]);
  const double inflight_mb = Denorm(space.spec(4), x[4]);
  const double compress = std::min(1.0, std::max(0.0, x[6]));
  const double mem_fraction = Denorm(space.spec(7), x[7]);
  const double partitions = Denorm(space.spec(11), x[11]);

  const double cores = instances * cores_per_exec;
  // Amdahl split of compute work; 1e9 ops ~ 20 core-seconds at baseline.
  const double work_s = w.work * 20.0;
  const double serial_s = work_s * (1.0 - w.parallel_fraction);
  const double parallel_s = work_s * w.parallel_fraction / cores;
  // Shuffle: compression shrinks the transfer 3x but costs CPU.
  const double net_factor = 1.0 - 0.65 * compress;
  const double shuffle_s =
      w.shuffle_gb * 1024.0 * net_factor / (instances * 1100.0) +
      compress * w.shuffle_gb * 0.4;
  // Fetch-wait grows when per-partition transfers exceed the window.
  const double fetch_s =
      0.01 * Softplus(w.shuffle_gb * 1024.0 * net_factor / partitions /
                          inflight_mb - 1.0);
  // Memory pressure: spill when per-task state exceeds execution memory.
  const double state_per_task_mb = w.state_gb * 1024.0 / partitions * 2.5;
  const double mem_per_task_mb =
      mem_gb * 1024.0 * mem_fraction / cores_per_exec;
  const double spill_s =
      Softplus((state_per_task_mb - mem_per_task_mb) / 200.0, 0.5) * 1.5;
  // Per-partition scheduling overhead and a parallelism sweet spot.
  const double overhead_s = 0.004 * (partitions + parallelism) +
                            0.02 * Softplus(cores - parallelism, 0.2);
  return 1.2 + serial_s + parallel_s + shuffle_s + fetch_s + spill_s +
         overhead_s;
}

double Fig3LatencyAt(const double* x) {
  const double execs = 1.0 + 11.0 * std::min(1.0, std::max(0.0, x[0]));
  const double cpe = 1.0 + 1.0 * std::min(1.0, std::max(0.0, x[1]));
  const double cores = SoftMin(execs * cpe, 24.0, 2.0);
  return 100.0 + Softplus(2400.0 / std::max(1e-6, cores) - 100.0, 0.5);
}

double Fig3CostAt(const double* x) {
  const double execs = 1.0 + 11.0 * std::min(1.0, std::max(0.0, x[0]));
  const double cpe = 1.0 + 1.0 * std::min(1.0, std::max(0.0, x[1]));
  return SoftMin(execs * cpe, 24.0, 2.0);
}

}  // namespace

std::shared_ptr<ObjectiveModel> MakeAnalyticBatchLatencyModel(
    const AnalyticWorkload& workload) {
  const ParamSpace& space = BatchParamSpace();
  AnalyticWorkload w = workload;
  return std::make_shared<CallableModel>(
      "analytic-latency", space.EncodedDim(),
      [w, &space](const Matrix& x, Vector* out) {
        for (int i = 0; i < x.rows(); ++i) {
          (*out)[i] = BatchLatencyAt(w, space, x.RowPtr(i));
        }
      });
}

namespace {

// Cores = instances x cores-per-executor, with `instances_knob` and
// `cores_knob` the knobs' indices in `space` (one encoded dim each).
std::shared_ptr<ObjectiveModel> BuildCoresModel(std::string name,
                                                const ParamSpace& space,
                                                int instances_knob,
                                                int cores_knob) {
  const ParamSpec& si = space.spec(instances_knob);
  const ParamSpec& sc = space.spec(cores_knob);
  return std::make_shared<CallableModel>(
      std::move(name), space.EncodedDim(),
      [&si, &sc, instances_knob, cores_knob](const Matrix& x, Vector* out) {
        for (int i = 0; i < x.rows(); ++i) {
          const double* row = x.RowPtr(i);
          (*out)[i] = Denorm(si, row[instances_knob]) *
                      Denorm(sc, row[cores_knob]);
        }
      },
      [&si, &sc, instances_knob, cores_knob](const Matrix& x, Matrix* grads,
                                             Vector* values) {
        for (int i = 0; i < x.rows(); ++i) {
          const double* row = x.RowPtr(i);
          const double instances = Denorm(si, row[instances_knob]);
          const double cores_per_exec = Denorm(sc, row[cores_knob]);
          double* g = grads->RowPtr(i);
          g[instances_knob] = (si.hi - si.lo) * cores_per_exec;
          g[cores_knob] = (sc.hi - sc.lo) * instances;
          if (values != nullptr) (*values)[i] = instances * cores_per_exec;
        }
      });
}

}  // namespace

std::shared_ptr<ObjectiveModel> MakeCostCoresModel() {
  // One process-wide instance: the model is stateless and every request that
  // asks for cost-in-cores means the same function, so sharing the instance
  // (a) skips a per-request allocation and (b) gives all such requests the
  // same FuseIdentity, which is what lets the solve coalescer fuse their CO
  // subproblems into one batched evaluation stream.
  static const std::shared_ptr<ObjectiveModel> kShared =
      BuildCoresModel("cost-cores", BatchParamSpace(), 1, 2);
  return kShared;
}

std::shared_ptr<ObjectiveModel> MakeStreamCostCoresModel() {
  // Shared for the same reasons as MakeCostCoresModel above.
  // Stream space layout: executor instances at knob 4, cores/executor at 5.
  static const std::shared_ptr<ObjectiveModel> kShared =
      BuildCoresModel("stream-cost-cores", StreamParamSpace(), 4, 5);
  return kShared;
}

std::shared_ptr<ObjectiveModel> MakeCpuHourModel(
    std::shared_ptr<ObjectiveModel> latency_model) {
  UDAO_CHECK(latency_model != nullptr);
  const int dim = latency_model->input_dim();
  std::shared_ptr<ObjectiveModel> cores = MakeCostCoresModel();
  UDAO_CHECK_EQ(dim, cores->input_dim());
  // The product rule composes batch-wise from the factors' batch paths, so a
  // DNN latency times the analytic cores model stays one GEMM per batch.
  return std::make_shared<CallableModel>(
      "cost-cpu-hour", dim,
      [latency_model, cores](const Matrix& x, Vector* out) {
        Vector lat;
        Vector c;
        latency_model->PredictBatch(x, &lat);
        cores->PredictBatch(x, &c);
        for (int i = 0; i < x.rows(); ++i) (*out)[i] = lat[i] * c[i] / 3600.0;
      },
      [latency_model, cores](const Matrix& x, Matrix* grads, Vector* values) {
        Vector lat;
        Vector c;
        Matrix gl;
        Matrix gc;
        latency_model->GradientBatch(x, &gl, &lat);
        cores->GradientBatch(x, &gc, &c);
        for (int i = 0; i < x.rows(); ++i) {
          double* out = grads->RowPtr(i);
          const double* l = gl.RowPtr(i);
          const double* r = gc.RowPtr(i);
          for (int d = 0; d < grads->cols(); ++d) {
            out[d] = (l[d] * c[i] + lat[i] * r[d]) / 3600.0;
          }
          if (values != nullptr) (*values)[i] = lat[i] * c[i] / 3600.0;
        }
      });
}

std::shared_ptr<ObjectiveModel> MakeFig3LatencyModel() {
  return std::make_shared<CallableModel>(
      "fig3-latency", 2, [](const Matrix& x, Vector* out) {
        for (int i = 0; i < x.rows(); ++i) {
          (*out)[i] = Fig3LatencyAt(x.RowPtr(i));
        }
      });
}

std::shared_ptr<ObjectiveModel> MakeFig3CostModel() {
  return std::make_shared<CallableModel>(
      "fig3-cost", 2, [](const Matrix& x, Vector* out) {
        for (int i = 0; i < x.rows(); ++i) (*out)[i] = Fig3CostAt(x.RowPtr(i));
      });
}

}  // namespace udao
