#ifndef UDAO_MODEL_OBJECTIVE_MODEL_H_
#define UDAO_MODEL_OBJECTIVE_MODEL_H_

#include <functional>
#include <memory>
#include <string>

#include "common/matrix.h"

namespace udao {

/// A predictive model Psi_i(x) of one task objective as a function of the
/// *encoded* configuration x in [0,1]^D (ParamSpace::Encode output).
///
/// This is the contract between the model server and the MOO layer
/// (Section II-B): MOO works with any model exposing a (sub)gradient and an
/// uncertainty estimate -- hand-crafted regression functions, Gaussian
/// Processes, or DNNs.
class ObjectiveModel {
 public:
  virtual ~ObjectiveModel() = default;

  /// Batched evaluation surface, the only evaluation code a model has. Each
  /// row of `x` is one encoded point, and a row's results never depend on
  /// the other rows of its batch, so an N-row call equals N 1-row calls
  /// (which is what lets MOGD stack multistarts and problems into one
  /// batch). MOGD and
  /// PF-AP issue thousands of predictions per run through these entry
  /// points.
  virtual void PredictBatch(const Matrix& x, Vector* out) const = 0;

  /// Subgradients for every row of `x`. Every model used by MOGD must be
  /// subdifferentiable (Section IV-B). When `values` is non-null it also
  /// receives the predictions, letting implementations share one forward
  /// pass between value and gradient -- the MOGD hot path evaluates both at
  /// every Adam step.
  virtual void GradientBatch(const Matrix& x, Matrix* grads,
                             Vector* values = nullptr) const = 0;

  /// Predictive mean and standard deviation per row. The default serves
  /// models without a native uncertainty notion: PredictBatch's values with
  /// stddev 0.
  virtual void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                           Vector* stddev) const;

  /// 1-row calls into the batch surface. Virtual only so that decorators
  /// outside src/ (perfbench's TimedModel) can forward them; no model in
  /// src/ overrides them (udao_lint rule scalar-model-override).
  virtual double Predict(const Vector& x) const;
  virtual void PredictWithUncertainty(const Vector& x, double* mean,
                                      double* stddev) const;
  virtual Vector InputGradient(const Vector& x) const;

  /// Input dimensionality (encoded).
  virtual int input_dim() const = 0;

  /// Short description for logs ("gp", "dnn", "analytic-latency", ...).
  virtual std::string Name() const = 0;

  /// Identity for cross-request solve sharing: two models with the same
  /// FuseIdentity are guaranteed to produce bitwise-identical predictions
  /// and gradients for identical inputs, so the solve coalescer may hand
  /// one caller's solve to another caller whose problem names the same
  /// identities. The default -- the instance itself -- is always safe (it
  /// merely forgoes sharing). Stateless pass-through wrappers forward to the
  /// wrapped model, which is what lets per-request NonNegativeModel shells
  /// around one shared server-side model share solves. A retrained model is
  /// a new instance, so a model change never reuses an older model's
  /// solves.
  virtual const void* FuseIdentity() const { return this; }
};

/// A model defined by callables; the adapter used by tests, the analytic
/// regression models and the stage-level subproblems. It stores one batch
/// form; per-point callables are lifted into it at construction.
class CallableModel : public ObjectiveModel {
 public:
  using Fn = std::function<double(const Vector&)>;
  using GradFn = std::function<Vector(const Vector&)>;
  using BatchFn = std::function<void(const Matrix&, Vector*)>;
  /// Receives a zeroed gradient matrix and, when requested, a values vector,
  /// both sized to the batch.
  using BatchGradFn = std::function<void(const Matrix&, Matrix*, Vector*)>;

  /// Builds from a per-point value function and an explicit gradient.
  CallableModel(std::string name, int dim, Fn fn, GradFn grad);

  /// Builds from a per-point value function only; the gradient falls back
  /// to central finite differences (adequate for baselines that do not
  /// descend, and for smooth closed forms).
  CallableModel(std::string name, int dim, Fn fn);

  /// Builds from batch forms (vectorized closed forms). A null `batch_grad`
  /// falls back to central finite differences of `batch_fn`.
  CallableModel(std::string name, int dim, BatchFn batch_fn,
                BatchGradFn batch_grad = nullptr);

  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  int input_dim() const override { return dim_; }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  int dim_;
  BatchFn batch_fn_;
  BatchGradFn batch_grad_;
};

/// Wraps a learned model of a physically non-negative quantity (latency,
/// throughput, monetary cost): predictions are floored at zero so the
/// optimizer cannot chase fictitious negative extrapolations, and spurious
/// orderings among such garbage predictions collapse (all floored points tie
/// and get resolved by the other objectives). The gradient passes through
/// unfloored as a pseudo-gradient, which keeps constraint terms able to push
/// the solution back into the trained region.
class NonNegativeModel : public ObjectiveModel {
 public:
  explicit NonNegativeModel(std::shared_ptr<const ObjectiveModel> base)
      : base_(std::move(base)) {}

  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  int input_dim() const override { return base_->input_dim(); }
  std::string Name() const override { return base_->Name() + "+floor"; }
  /// The floor is stateless and deterministic, so two shells around one
  /// model are interchangeable for solve sharing.
  const void* FuseIdentity() const override { return base_->FuseIdentity(); }

 private:
  std::shared_ptr<const ObjectiveModel> base_;
};

/// Central finite-difference gradient of an arbitrary model at x; all
/// 2 * dim probes go through one PredictBatch call.
Vector FiniteDifferenceGradient(const ObjectiveModel& model, const Vector& x,
                                double h = 1e-5);

}  // namespace udao

#endif  // UDAO_MODEL_OBJECTIVE_MODEL_H_
