#ifndef UDAO_NN_ADAM_H_
#define UDAO_NN_ADAM_H_

#include <cstddef>

#include "common/matrix.h"
#include "nn/kernels.h"

namespace udao {

/// Hyperparameters for the Adam optimizer (Kingma & Ba defaults; the paper
/// uses Adam both for model training and inside the MOGD solver).
struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Adaptive-moment-estimation optimizer over a block of `dim` parameters.
/// The parameters may live in several buffers (an Mlp's layers, the rows of
/// a multistart matrix): moment i belongs to parameter i of the caller's
/// layout. A step is BeginStep(), which computes the bias corrections once,
/// then Update() over the ranges the step moves, in place; each range runs
/// the active kernel table's adam entry, which gives the same bits in every
/// backend.
class Adam {
 public:
  explicit Adam(size_t dim, AdamConfig config = AdamConfig());

  /// Starts the next step: advances the step counter t and computes
  /// 1 - beta^t for both moments.
  void BeginStep();

  /// Applies the current step to params[0, n), the parameters at
  /// [offset, offset + n) of the block, whose gradient is grad[0, n).
  void Update(size_t offset, double* params, const double* grad, int n);

  /// One whole step over all `dim` parameters.
  void Step(Vector* params, const Vector& grad);

 private:
  AdamConfig config_;
  Vector m_;
  Vector v_;
  int t_ = 0;
  kernels::AdamStep step_{};
};

}  // namespace udao

#endif  // UDAO_NN_ADAM_H_
