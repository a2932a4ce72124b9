#include "nn/adam.h"

#include <cmath>

#include "common/check.h"

namespace udao {

Adam::Adam(size_t dim, AdamConfig config)
    : config_(config), m_(dim, 0.0), v_(dim, 0.0) {
  UDAO_CHECK_GT(dim, 0u);
}

void Adam::BeginStep() {
  ++t_;
  step_ = kernels::AdamStep{
      .beta1 = config_.beta1,
      .beta2 = config_.beta2,
      .one_minus_beta1 = 1.0 - config_.beta1,
      .one_minus_beta2 = 1.0 - config_.beta2,
      .bias_correction1 = 1.0 - std::pow(config_.beta1, t_),
      .bias_correction2 = 1.0 - std::pow(config_.beta2, t_),
      .learning_rate = config_.learning_rate,
      .epsilon = config_.epsilon,
  };
}

void Adam::Update(size_t offset, double* params, const double* grad, int n) {
  UDAO_CHECK_GT(t_, 0);
  UDAO_CHECK_LE(offset + n, m_.size());
  kernels::ActiveTable()->adam(params, grad, m_.data() + offset,
                               v_.data() + offset, n, step_);
}

void Adam::Step(Vector* params, const Vector& grad) {
  UDAO_CHECK_EQ(params->size(), m_.size());
  UDAO_CHECK_EQ(grad.size(), m_.size());
  BeginStep();
  Update(0, params->data(), grad.data(), static_cast<int>(m_.size()));
}

}  // namespace udao
