#ifndef UDAO_TESTS_MLP_REFERENCE_H_
#define UDAO_TESTS_MLP_REFERENCE_H_

// One-point-at-a-time MLP passes: the per-sample forward (a matrix-vector
// product per layer), back-propagation by transposed matrix-vector products,
// and the MC-dropout loop, as the network is usually written down; plus the
// trainer as first written, which flattens the parameters and gradients and
// steps them with a plain Adam loop. Kept only as the reference the batched
// Mlp passes and TrainMlp must reproduce bit for bit within a kernel
// backend; nothing outside tests/ calls these.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "nn/adam.h"
#include "nn/kernels.h"
#include "nn/mlp.h"
#include "nn/train.h"

namespace udao {
namespace testing_reference {

inline double ReferenceAct(Activation act, double v) {
  return act == Activation::kRelu ? (v > 0.0 ? v : 0.0) : std::tanh(v);
}

// Subgradient 0 at the ReLU kink (pre == 0).
inline double ReferenceActGrad(Activation act, double pre, double post) {
  return act == Activation::kRelu ? (pre > 0.0 ? 1.0 : 0.0)
                                  : 1.0 - post * post;
}

/// Forward pass of one point, recording each layer's pre- and
/// post-activations when asked; `masks` (one per hidden layer) scale the
/// hidden post-activations.
inline Vector ReferenceForward(const Mlp& mlp, const Vector& x,
                               std::vector<Vector>* pre,
                               std::vector<Vector>* post,
                               const std::vector<Vector>* masks = nullptr) {
  const std::vector<Mlp::Layer>& layers = mlp.layers();
  const int num_layers = static_cast<int>(layers.size());
  Vector cur = x;
  for (int l = 0; l < num_layers; ++l) {
    Vector z = layers[l].w.Apply(cur);
    for (size_t i = 0; i < z.size(); ++i) z[i] += layers[l].b[i];
    if (pre != nullptr) pre->push_back(z);
    const bool is_output = (l == num_layers - 1);
    Vector a(z.size());
    for (size_t i = 0; i < z.size(); ++i) {
      a[i] = is_output ? z[i] : ReferenceAct(mlp.config().activation, z[i]);
    }
    if (!is_output && masks != nullptr) {
      for (size_t i = 0; i < a.size(); ++i) a[i] *= (*masks)[l][i];
    }
    if (post != nullptr) post->push_back(a);
    cur = std::move(a);
  }
  return cur;
}

/// Gradient of the scalar output with respect to the input at x.
inline Vector ReferenceInputGradient(const Mlp& mlp, const Vector& x) {
  std::vector<Vector> pre;
  std::vector<Vector> post;
  ReferenceForward(mlp, x, &pre, &post);
  const int num_layers = static_cast<int>(mlp.layers().size());
  Vector delta(1, 1.0);
  for (int l = num_layers - 1; l >= 0; --l) {
    if (l != num_layers - 1) {
      for (size_t i = 0; i < delta.size(); ++i) {
        delta[i] *= ReferenceActGrad(mlp.config().activation, pre[l][i],
                                     post[l][i]);
      }
    }
    delta = mlp.layers()[l].w.ApplyTranspose(delta);
  }
  return delta;
}

/// Mean-squared-error loss over the rows of `x` (plus L2 on the weights),
/// with each sample back-propagated on its own and its weight gradients
/// accumulated into `grads` (from Mlp::ZeroGrads) one axpy per unit.
inline double ReferenceForwardBackward(const Mlp& mlp, const Matrix& x,
                                       const Vector& y,
                                       std::vector<Mlp::LayerGrad>* grads) {
  const std::vector<Mlp::Layer>& layers = mlp.layers();
  const int num_layers = static_cast<int>(layers.size());
  const int batch = x.rows();
  double loss = 0.0;
  for (int n = 0; n < batch; ++n) {
    std::vector<Vector> pre;
    std::vector<Vector> post;
    const Vector input = x.Row(n);
    const Vector out = ReferenceForward(mlp, input, &pre, &post);
    const double err = out[0] - y[n];
    loss += err * err;
    Vector delta(1, 2.0 * err / batch);
    for (int l = num_layers - 1; l >= 0; --l) {
      if (l != num_layers - 1) {
        for (size_t i = 0; i < delta.size(); ++i) {
          delta[i] *= ReferenceActGrad(mlp.config().activation, pre[l][i],
                                       post[l][i]);
        }
      }
      const Vector& in = (l == 0) ? input : post[l - 1];
      Mlp::LayerGrad& g = (*grads)[l];
      for (int r = 0; r < g.dw.rows(); ++r) {
        const double d = delta[r];
        if (d == 0.0) continue;
        kernels::Axpy(g.dw.RowPtr(r), in.data(), d, g.dw.cols());
        g.db[r] += d;
      }
      delta = layers[l].w.ApplyTranspose(delta);
    }
  }
  loss /= batch;
  const double l2 = mlp.config().l2;
  if (l2 > 0.0) {
    for (int l = 0; l < num_layers; ++l) {
      const Vector& w = layers[l].w.data();
      Vector& dw = (*grads)[l].dw.data();
      for (size_t i = 0; i < w.size(); ++i) {
        loss += l2 * w[i] * w[i];
        dw[i] += 2.0 * l2 * w[i];
      }
    }
  }
  return loss;
}

/// MC-dropout estimate for one point: `samples` stochastic forwards whose
/// masks `rng` draws sample by sample, layer by layer, unit by unit.
inline void ReferencePredictWithUncertainty(const Mlp& mlp, const Vector& x,
                                            int samples, Rng* rng,
                                            double* mean, double* stddev) {
  const std::vector<Mlp::Layer>& layers = mlp.layers();
  const int num_hidden = static_cast<int>(layers.size()) - 1;
  const double keep = 1.0 - mlp.config().dropout;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int s = 0; s < samples; ++s) {
    std::vector<Vector> masks(layers.size());
    for (int l = 0; l < num_hidden; ++l) {
      masks[l].assign(layers[l].b.size(), 0.0);
      for (double& m : masks[l]) m = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
    }
    const double y = ReferenceForward(mlp, x, nullptr, nullptr, &masks)[0];
    sum += y;
    sum_sq += y * y;
  }
  *mean = sum / samples;
  const double var =
      samples > 1
          ? std::max(0.0, (sum_sq - sum * sum / samples) / (samples - 1))
          : 0.0;
  *stddev = std::sqrt(var);
}

/// Adam over one flat parameter vector, one plain loop per step with the
/// bias corrections computed in the step.
class ReferenceAdam {
 public:
  ReferenceAdam(size_t dim, AdamConfig config)
      : config_(config), m_(dim, 0.0), v_(dim, 0.0) {}

  void Step(Vector* params, const Vector& grad) {
    ++t_;
    const double bc1 = 1.0 - std::pow(config_.beta1, t_);
    const double bc2 = 1.0 - std::pow(config_.beta2, t_);
    for (size_t i = 0; i < m_.size(); ++i) {
      m_[i] = config_.beta1 * m_[i] + (1.0 - config_.beta1) * grad[i];
      v_[i] =
          config_.beta2 * v_[i] + (1.0 - config_.beta2) * grad[i] * grad[i];
      const double mhat = m_[i] / bc1;
      const double vhat = v_[i] / bc2;
      (*params)[i] -=
          config_.learning_rate * mhat / (std::sqrt(vhat) + config_.epsilon);
    }
  }

 private:
  AdamConfig config_;
  Vector m_;
  Vector v_;
  int t_ = 0;
};

/// TrainMlp as first written: each mini-batch runs ReferenceForwardBackward,
/// then its gradients are flattened in Snapshot() order and the whole
/// Snapshot() is stepped by ReferenceAdam and Restore()d; the best epoch's
/// Snapshot() is restored at the end.
inline TrainResult ReferenceTrainMlp(Mlp* mlp, const Matrix& x,
                                     const Vector& y,
                                     const TrainConfig& config, Rng* rng) {
  const int n = x.rows();
  const int batch_size = std::min(config.batch_size, n);
  Vector params = mlp->Snapshot();
  ReferenceAdam adam(params.size(),
                     AdamConfig{.learning_rate = config.learning_rate});
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  TrainResult result;
  result.best_loss = std::numeric_limits<double>::infinity();
  Vector best_snapshot = params;
  int since_best = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int num_batches = 0;
    for (int start = 0; start < n; start += batch_size) {
      const int end = std::min(start + batch_size, n);
      Matrix bx(end - start, x.cols());
      Vector by(end - start);
      for (int i = start; i < end; ++i) {
        for (int c = 0; c < x.cols(); ++c) bx(i - start, c) = x(order[i], c);
        by[i - start] = y[order[i]];
      }
      std::vector<Mlp::LayerGrad> grads = mlp->ZeroGrads();
      epoch_loss += ReferenceForwardBackward(*mlp, bx, by, &grads);
      ++num_batches;
      Vector flat;
      for (const Mlp::LayerGrad& g : grads) {
        flat.insert(flat.end(), g.dw.data().begin(), g.dw.data().end());
        flat.insert(flat.end(), g.db.begin(), g.db.end());
      }
      params = mlp->Snapshot();
      adam.Step(&params, flat);
      mlp->Restore(params);
    }
    epoch_loss /= std::max(1, num_batches);
    result.final_loss = epoch_loss;
    result.epochs_run = epoch + 1;
    if (epoch_loss < result.best_loss) {
      result.best_loss = epoch_loss;
      best_snapshot = mlp->Snapshot();
      since_best = 0;
    } else if (config.early_stop_patience > 0 &&
               ++since_best >= config.early_stop_patience) {
      break;
    }
  }
  mlp->Restore(best_snapshot);
  return result;
}

}  // namespace testing_reference
}  // namespace udao

#endif  // UDAO_TESTS_MLP_REFERENCE_H_
