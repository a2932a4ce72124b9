#include "model/objective_model.h"

#include <algorithm>

#include "common/check.h"

namespace udao {

namespace {

Matrix OneRow(const Vector& x) {
  Matrix m(1, static_cast<int>(x.size()));
  std::copy(x.begin(), x.end(), m.data().begin());
  return m;
}

// Central finite differences of a batch value form at every row of `x`: the
// +h and -h probes of every coordinate of every row go through one call.
void CentralDifferences(const CallableModel::BatchFn& fn, const Matrix& x,
                        double h, Matrix* grads) {
  const int rows = x.rows();
  const int dim = x.cols();
  Matrix probes(2 * rows * dim, dim);
  for (int i = 0; i < rows; ++i) {
    for (int d = 0; d < dim; ++d) {
      double* plus = probes.RowPtr(2 * (i * dim + d));
      double* minus = plus + dim;
      std::copy(x.RowPtr(i), x.RowPtr(i) + dim, plus);
      std::copy(x.RowPtr(i), x.RowPtr(i) + dim, minus);
      plus[d] += h;
      minus[d] -= h;
    }
  }
  Vector values(probes.rows());
  fn(probes, &values);
  grads->Resize(rows, dim);
  for (int i = 0; i < rows; ++i) {
    double* g = grads->RowPtr(i);
    for (int d = 0; d < dim; ++d) {
      const int k = 2 * (i * dim + d);
      g[d] = (values[k] - values[k + 1]) / (2.0 * h);
    }
  }
}

// FiniteDifferenceGradient's default step.
constexpr double kFiniteDifferenceStep = 1e-5;

// Copies row i of `x` into `point`, which the lifted per-point callables
// reuse across rows.
void LoadRow(const Matrix& x, int i, Vector* point) {
  point->assign(x.RowPtr(i), x.RowPtr(i) + x.cols());
}

CallableModel::BatchFn LiftValues(CallableModel::Fn fn) {
  return [fn = std::move(fn)](const Matrix& x, Vector* out) {
    Vector point;
    for (int i = 0; i < x.rows(); ++i) {
      LoadRow(x, i, &point);
      (*out)[i] = fn(point);
    }
  };
}

}  // namespace

Vector FiniteDifferenceGradient(const ObjectiveModel& model, const Vector& x,
                                double h) {
  Matrix grads;
  CentralDifferences(
      [&model](const Matrix& probes, Vector* out) {
        model.PredictBatch(probes, out);
      },
      OneRow(x), h, &grads);
  return grads.Row(0);
}

void ObjectiveModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                                 Vector* stddev) const {
  PredictBatch(x, mean);
  stddev->assign(x.rows(), 0.0);
}

double ObjectiveModel::Predict(const Vector& x) const {
  Vector out;
  PredictBatch(OneRow(x), &out);
  return out[0];
}

void ObjectiveModel::PredictWithUncertainty(const Vector& x, double* mean,
                                            double* stddev) const {
  Vector means;
  Vector stddevs;
  PredictWithUncertaintyBatch(OneRow(x), &means, &stddevs);
  *mean = means[0];
  *stddev = stddevs[0];
}

Vector ObjectiveModel::InputGradient(const Vector& x) const {
  Matrix grads;
  GradientBatch(OneRow(x), &grads);
  return grads.Row(0);
}

CallableModel::CallableModel(std::string name, int dim, Fn fn, GradFn grad)
    : CallableModel(
          std::move(name), dim, LiftValues(fn),
          [fn, grad = std::move(grad)](const Matrix& x, Matrix* grads,
                                       Vector* values) {
            Vector point;
            for (int i = 0; i < x.rows(); ++i) {
              LoadRow(x, i, &point);
              const Vector g = grad(point);
              UDAO_CHECK_EQ(static_cast<int>(g.size()), grads->cols());
              std::copy(g.begin(), g.end(), grads->RowPtr(i));
              if (values != nullptr) (*values)[i] = fn(point);
            }
          }) {}

CallableModel::CallableModel(std::string name, int dim, Fn fn)
    : CallableModel(std::move(name), dim, LiftValues(std::move(fn))) {}

CallableModel::CallableModel(std::string name, int dim, BatchFn batch_fn,
                             BatchGradFn batch_grad)
    : name_(std::move(name)), dim_(dim), batch_fn_(std::move(batch_fn)),
      batch_grad_(std::move(batch_grad)) {
  if (batch_grad_ == nullptr) {
    batch_grad_ = [fn = batch_fn_](const Matrix& x, Matrix* grads,
                                   Vector* values) {
      CentralDifferences(fn, x, kFiniteDifferenceStep, grads);
      if (values != nullptr) fn(x, values);
    };
  }
}

void CallableModel::PredictBatch(const Matrix& x, Vector* out) const {
  UDAO_CHECK_EQ(x.cols(), dim_);
  out->resize(x.rows());
  batch_fn_(x, out);
}

void CallableModel::GradientBatch(const Matrix& x, Matrix* grads,
                                  Vector* values) const {
  UDAO_CHECK_EQ(x.cols(), dim_);
  // The callback contract hands user code a zeroed gradient matrix, so the
  // Resize is followed by an explicit fill.
  grads->Resize(x.rows(), dim_);
  std::fill(grads->data().begin(), grads->data().end(), 0.0);
  if (values != nullptr) values->resize(x.rows());
  batch_grad_(x, grads, values);
}

void NonNegativeModel::PredictBatch(const Matrix& x, Vector* out) const {
  base_->PredictBatch(x, out);
  for (double& v : *out) v = std::max(0.0, v);
}

void NonNegativeModel::GradientBatch(const Matrix& x, Matrix* grads,
                                     Vector* values) const {
  // Gradients pass through unfloored (pseudo-gradient); values get the floor.
  base_->GradientBatch(x, grads, values);
  if (values != nullptr) {
    for (double& v : *values) v = std::max(0.0, v);
  }
}

void NonNegativeModel::PredictWithUncertaintyBatch(const Matrix& x,
                                                   Vector* mean,
                                                   Vector* stddev) const {
  base_->PredictWithUncertaintyBatch(x, mean, stddev);
  for (double& v : *mean) v = std::max(0.0, v);
}

}  // namespace udao
