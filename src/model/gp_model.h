#ifndef UDAO_MODEL_GP_MODEL_H_
#define UDAO_MODEL_GP_MODEL_H_

#include <iosfwd>
#include <memory>

#include "common/matrix.h"
#include "model/objective_model.h"

namespace udao {

/// Hyperparameter-fitting settings for GpModel.
struct GpConfig {
  /// Learn one lengthscale per input dimension (ARD) vs a shared one.
  bool ard = true;
  /// Gradient-ascent steps of marginal-likelihood maximization (0 keeps the
  /// initial hyperparameters).
  int hyper_opt_steps = 120;
  double hyper_learning_rate = 0.05;
  double init_lengthscale = 0.5;
  double init_signal_var = 1.0;
  double init_noise_var = 1e-2;
  /// Base diagonal jitter; escalated automatically if factorization fails
  /// (duplicate training points).
  double jitter = 1e-8;
  /// Fit the GP on log targets and predict exp(.): positive predictions and
  /// multiplicative error, suited to latency/cost/throughput objectives.
  bool log_transform_targets = false;
};

/// Zero-mean Gaussian Process regression with a squared-exponential (ARD)
/// kernel -- the model family used by OtterTune and by UDAO's model server
/// for GP objectives. Targets are standardized internally. Hyperparameters
/// are learned by maximum marginal likelihood with analytic gradients
/// (Section 3.4 of the GP background in the paper's reference chain).
///
/// Exposes analytic input gradients of the posterior mean, which is what lets
/// MOGD descend on GP objectives in 0.1-0.5 s where a general MINLP solver
/// takes minutes (Section V).
class GpModel : public ObjectiveModel {
 public:
  /// Fits a GP to rows of `x` (encoded configs) against targets `y`.
  /// Fails when inputs are empty/mismatched or the kernel cannot be
  /// factorized even with escalated jitter.
  static StatusOr<std::shared_ptr<GpModel>> Fit(const Matrix& x,
                                                const Vector& y,
                                                const GpConfig& config);

  // Batched inference shares one cross-kernel matrix K* [n, n_train] across
  // predictions, gradients, and the posterior variance of all query points.
  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  int input_dim() const override { return x_.cols(); }
  std::string Name() const override { return "gp"; }

  /// Log marginal likelihood of the training data under the fitted
  /// hyperparameters (standardized targets).
  double log_marginal_likelihood() const { return lml_; }
  const Vector& lengthscales() const { return lengthscales_; }
  double signal_var() const { return signal_var_; }
  double noise_var() const { return noise_var_; }
  int num_training_points() const { return x_.rows(); }

  /// Writes the training set and fitted hyperparameters as portable text.
  void SerializeTo(std::ostream& out) const;
  /// Rebuilds a GP (refactorizing the kernel) from SerializeTo output.
  static StatusOr<std::shared_ptr<GpModel>> Deserialize(std::istream& in);

 private:
  GpModel() = default;

  double Kernel(const double* a, const double* b) const;
  // Cross-kernel matrix k(x_i, train_j) for every row of `x`.
  Matrix KernelMatrix(const Matrix& x) const;
  // Recomputes the factorization for the current hyperparameters; returns
  // false if even escalated jitter cannot make the kernel SPD.
  bool Refactorize();

  Matrix x_;            // training inputs, n x d
  Vector z_;            // standardized (possibly log-transformed) targets
  bool log_targets_ = false;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  Vector lengthscales_;  // per-dimension (or broadcast) lengthscales
  double signal_var_ = 1.0;
  double noise_var_ = 1e-2;
  double jitter_ = 1e-8;
  Matrix chol_;          // lower Cholesky of K + (noise+jitter) I
  Vector alpha_;         // (K + noise I)^{-1} z
  double lml_ = 0.0;
};

}  // namespace udao

#endif  // UDAO_MODEL_GP_MODEL_H_
