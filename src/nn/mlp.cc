#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace udao {

Mlp::Mlp(MlpConfig config, Rng* rng) : config_(std::move(config)) {
  UDAO_CHECK_GE(config_.layer_sizes.size(), 2u);
  const int num_layers = static_cast<int>(config_.layer_sizes.size()) - 1;
  layers_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    const int fan_in = config_.layer_sizes[l];
    const int fan_out = config_.layer_sizes[l + 1];
    UDAO_CHECK_GT(fan_in, 0);
    UDAO_CHECK_GT(fan_out, 0);
    Layer layer{Matrix(fan_out, fan_in), Vector(fan_out, 0.0)};
    // He initialization suits ReLU; it also works acceptably for tanh.
    const double scale = std::sqrt(2.0 / fan_in);
    for (int r = 0; r < fan_out; ++r) {
      for (int c = 0; c < fan_in; ++c) layer.w(r, c) = rng->Gaussian(0, scale);
    }
    layers_.push_back(std::move(layer));
  }
}

size_t Mlp::MaxWidth() const {
  size_t width = 1;
  for (size_t l = 1; l < config_.layer_sizes.size(); ++l) {
    width = std::max(width, static_cast<size_t>(config_.layer_sizes[l]));
  }
  return width;
}

const double* Mlp::ForwardArena(const Matrix& x, kernels::KernelArena* arena,
                                std::vector<const double*>* post,
                                const std::vector<double*>* masks) const {
  UDAO_CHECK_EQ(x.cols(), input_dim());
  const int rows = x.rows();
  const double* cur = x.data().data();
  const int num_layers = static_cast<int>(layers_.size());
  // One table load for the whole pass: every layer of a forward runs on the
  // same backend even if a concurrent test flips the dispatch mid-call.
  const kernels::KernelTable* t = kernels::ActiveTable();
  for (int l = 0; l < num_layers; ++l) {
    // out = fuse(cur * W^T + bias): one fused layer kernel for the whole
    // batch. Per output element the kernel performs dot, then + bias, then
    // the activation, so a row's outputs are the same whatever else shares
    // its batch.
    const Layer& layer = layers_[l];
    const int fan_in = layer.w.cols();
    const int fan_out = layer.w.rows();
    double* out = arena->Alloc(static_cast<size_t>(rows) * fan_out);
    const bool is_output = (l == num_layers - 1);
    const bool fuse_relu =
        !is_output && config_.activation == Activation::kRelu;
    t->layer_forward(cur, rows, fan_in, layer.w.data().data(),
                     layer.b.data(), fan_out,
                     fuse_relu ? kernels::Fused::kBiasRelu
                               : kernels::Fused::kBias,
                     out);
    if (!is_output) {
      const size_t count = static_cast<size_t>(rows) * fan_out;
      if (config_.activation == Activation::kTanh) {
        // tanh stays a scalar per-element call in every backend (libm's
        // tanh is the dominant cost either way).
        for (size_t i = 0; i < count; ++i) out[i] = std::tanh(out[i]);
      }
      if (masks != nullptr) {
        // Dropout masks scale post-activation outputs.
        const double* m = (*masks)[l];
        for (size_t i = 0; i < count; ++i) out[i] *= m[i];
      }
    }
    if (post != nullptr) post->push_back(out);
    cur = out;
  }
  return cur;
}

void Mlp::Backward(const Matrix& x, const std::vector<const double*>& post,
                   double* delta, kernels::KernelArena* arena,
                   std::vector<LayerGrad>* grads, double* input_grad) const {
  const int rows = x.rows();
  const size_t capacity = static_cast<size_t>(rows) * MaxWidth();
  double* scratch = arena->Alloc(capacity);
  double* delta_t = grads != nullptr ? arena->Alloc(capacity) : nullptr;
  const kernels::KernelTable* t = kernels::ActiveTable();
  const int num_layers = static_cast<int>(layers_.size());
  int width = 1;
  for (int l = num_layers - 1; l >= 0; --l) {
    // delta holds d(loss)/d(post-activation of layer l), [rows x width].
    if (l != num_layers - 1) {
      // Elementwise activation-gradient scaling stays plain (non-kernel)
      // code, so it is never FMA-contracted in any backend.
      const double* p = post[l];
      const size_t count = static_cast<size_t>(rows) * width;
      if (config_.activation == Activation::kRelu) {
        // post > 0 iff pre > 0 for relu: the subgradient is 0 at the kink.
        // The factor is a converted comparison: `p > 0 ? 1.0 : 0.0` compiles
        // to a branch, which mispredicts on about half of the units.
        for (size_t i = 0; i < count; ++i) {
          const double keep = p[i] > 0.0;
          delta[i] *= keep;
        }
      } else {
        for (size_t i = 0; i < count; ++i) delta[i] *= 1.0 - p[i] * p[i];
      }
    }
    const Layer& layer = layers_[l];
    const int fan_in = layer.w.cols();
    if (grads != nullptr) {
      // dW = delta^T * in. gemm_nn over the transposed deltas accumulates
      // every weight across rows in row order, skipping zero deltas; db sums
      // each delta column in row order.
      LayerGrad& g = (*grads)[l];
      UDAO_CHECK_EQ(g.dw.data().size(), layer.w.data().size());
      UDAO_CHECK_EQ(g.db.size(), layer.b.size());
      for (int n = 0; n < rows; ++n) {
        for (int r = 0; r < width; ++r) {
          delta_t[static_cast<size_t>(r) * rows + n] =
              delta[static_cast<size_t>(n) * width + r];
        }
      }
      const double* in = l == 0 ? x.data().data() : post[l - 1];
      t->gemm_nn(delta_t, width, rows, in, fan_in, g.dw.data().data());
      std::fill(g.db.begin(), g.db.end(), 0.0);
      for (int n = 0; n < rows; ++n) {
        const double* d = delta + static_cast<size_t>(n) * width;
        for (int r = 0; r < width; ++r) g.db[r] += d[r];
      }
    }
    if (l == 0 && input_grad == nullptr) break;
    // delta * W: the deltas of the layer below (or of the input).
    t->gemm_nn(delta, rows, width, layer.w.data().data(), fan_in,
               l == 0 ? input_grad : scratch);
    width = fan_in;
    std::swap(delta, scratch);
  }
}

void Mlp::PredictBatch(const Matrix& x, Vector* out) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope scope(&arena);
  const double* y = ForwardArena(x, &arena, nullptr);
  out->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    (*out)[i] = y[i];
    UDAO_DCHECK_FINITE((*out)[i]);
  }
}

void Mlp::InputGradientBatch(const Matrix& x, Matrix* grad,
                             Vector* values) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  const int rows = x.rows();
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope scope(&arena);
  std::vector<const double*> post;
  const double* out = ForwardArena(x, &arena, &post);
  if (values != nullptr) {
    values->resize(rows);
    for (int i = 0; i < rows; ++i) {
      (*values)[i] = out[i];
      UDAO_DCHECK_FINITE((*values)[i]);
    }
  }
  // Seed every row with d(out)/d(out) = 1; the final product is written
  // straight into *grad.
  double* delta = arena.Alloc(static_cast<size_t>(rows) * MaxWidth());
  std::fill(delta, delta + rows, 1.0);
  grad->Resize(rows, input_dim());
  Backward(x, post, delta, &arena, nullptr, grad->RowPtr(0));
  // A non-finite entry here means the forward pass overflowed; fail loudly
  // before the solver averages NaN gradients into Adam's moments.
  for (const double g : grad->data()) UDAO_DCHECK_FINITE(g);
}

void Mlp::PredictWithUncertaintyBatch(const Matrix& x, int samples,
                                      std::vector<Rng>* rngs, Vector* mean,
                                      Vector* stddev) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  UDAO_CHECK_GT(samples, 0);
  UDAO_CHECK_EQ(rngs->size(), static_cast<size_t>(x.rows()));
  const int rows = x.rows();
  const int num_hidden = static_cast<int>(layers_.size()) - 1;
  const double keep = 1.0 - config_.dropout;
  Vector sum(rows, 0.0);
  Vector sum_sq(rows, 0.0);
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope outer(&arena);
  // Per-layer mask buffers ([rows x fan_out] each), refilled every sample.
  std::vector<double*> masks(num_hidden);
  for (int l = 0; l < num_hidden; ++l) {
    masks[l] = arena.Alloc(static_cast<size_t>(rows) * layers_[l].b.size());
  }
  for (int s = 0; s < samples; ++s) {
    // Row r's generator emits this sample's masks layer by layer, unit by
    // unit, so a row's stream never depends on the other rows.
    for (int r = 0; r < rows; ++r) {
      Rng& rng = (*rngs)[r];
      for (int l = 0; l < num_hidden; ++l) {
        const size_t width = layers_[l].b.size();
        double* m = masks[l] + static_cast<size_t>(r) * width;
        for (size_t i = 0; i < width; ++i) {
          // Inverted dropout keeps the expected activation unchanged.
          m[i] = rng.Bernoulli(keep) ? 1.0 / keep : 0.0;
        }
      }
    }
    kernels::KernelArena::Scope pass(&arena);
    const double* y = ForwardArena(x, &arena, nullptr, &masks);
    for (int r = 0; r < rows; ++r) {
      sum[r] += y[r];
      sum_sq[r] += y[r] * y[r];
    }
  }
  mean->resize(rows);
  stddev->resize(rows);
  for (int r = 0; r < rows; ++r) {
    (*mean)[r] = sum[r] / samples;
    const double var =
        samples > 1
            ? std::max(0.0, (sum_sq[r] - sum[r] * sum[r] / samples) /
                                (samples - 1))
            : 0.0;
    (*stddev)[r] = std::sqrt(var);
    UDAO_DCHECK_FINITE((*mean)[r]);
    UDAO_DCHECK_FINITE((*stddev)[r]);
  }
}

std::vector<Mlp::LayerGrad> Mlp::ZeroGrads() const {
  std::vector<LayerGrad> grads;
  grads.reserve(layers_.size());
  for (const Layer& layer : layers_) {
    grads.push_back(LayerGrad{Matrix(layer.w.rows(), layer.w.cols()),
                              Vector(layer.b.size(), 0.0)});
  }
  return grads;
}

double Mlp::ForwardBackward(const Matrix& x, const Vector& y,
                            std::vector<Mlp::LayerGrad>* grads) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  UDAO_CHECK_EQ(x.rows(), static_cast<int>(y.size()));
  UDAO_CHECK_EQ(grads->size(), layers_.size());
  const int batch = x.rows();
  UDAO_CHECK_GT(batch, 0);
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope scope(&arena);
  std::vector<const double*> post;
  const double* out = ForwardArena(x, &arena, &post);
  // Seed each row with d(batch-mean squared error)/d(out).
  double* delta = arena.Alloc(static_cast<size_t>(batch) * MaxWidth());
  double loss = 0.0;
  for (int n = 0; n < batch; ++n) {
    const double err = out[n] - y[n];
    loss += err * err;
    delta[n] = 2.0 * err / batch;
  }
  loss /= batch;
  Backward(x, post, delta, &arena, grads, nullptr);
  // L2 regularization on weights (not biases). The loss terms add up in
  // weight order, one chain; the gradient terms are independent per weight.
  if (config_.l2 > 0.0) {
    const double l2 = config_.l2;
    const double two_l2 = 2.0 * l2;
    for (size_t l = 0; l < layers_.size(); ++l) {
      const double* w = layers_[l].w.data().data();
      double* dw = (*grads)[l].dw.data().data();
      const size_t count = layers_[l].w.data().size();
      for (size_t i = 0; i < count; ++i) loss += l2 * w[i] * w[i];
      for (size_t i = 0; i < count; ++i) dw[i] += two_l2 * w[i];
    }
  }
  return loss;
}

Vector Mlp::Snapshot() const {
  Vector snap;
  for (const Layer& layer : layers_) {
    snap.insert(snap.end(), layer.w.data().begin(), layer.w.data().end());
    snap.insert(snap.end(), layer.b.begin(), layer.b.end());
  }
  return snap;
}

void Mlp::Restore(const Vector& snapshot) {
  size_t pos = 0;
  for (Layer& layer : layers_) {
    for (double& v : layer.w.data()) v = snapshot[pos++];
    for (double& v : layer.b) v = snapshot[pos++];
  }
  UDAO_CHECK_EQ(pos, snapshot.size());
}

}  // namespace udao
