#ifndef UDAO_NN_MLP_H_
#define UDAO_NN_MLP_H_

#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "nn/kernels.h"

namespace udao {

/// Activation function for hidden layers. The paper's largest model uses ReLU
/// (4 hidden layers of 128 units); Tanh is provided for smoother surfaces in
/// small tests.
enum class Activation { kRelu, kTanh };

/// Architecture and regularization settings for an Mlp.
struct MlpConfig {
  /// Layer widths including input and output, e.g. {12, 128, 128, 128, 128, 1}
  /// for the paper's largest latency model.
  std::vector<int> layer_sizes;
  Activation activation = Activation::kRelu;
  /// L2 weight-decay coefficient applied during training (the paper notes the
  /// DNN "is regularized by the L2 loss").
  double l2 = 1e-4;
  /// Dropout probability used for MC-dropout uncertainty estimates
  /// (Gal & Ghahramani-style Bayesian approximation, paper ref [9]).
  double dropout = 0.1;
};

/// A feed-forward multi-layer perceptron with manual forward/backward passes.
///
/// Every pass is batched: rows of an input matrix are points, and each
/// layer runs as one dispatched kernel over all of them (nn/kernels.h). One
/// forward (ForwardArena) serves inference, MC-dropout and training; one
/// backward (Backward, gemm_nn per layer) produces gradients with respect to
/// the *weights* (used by the trainer in train.h) and with respect to the
/// *input* (used by the MOGD solver, which descends on the configuration x
/// while weights stay frozen). Inference on a row never depends on the
/// other rows of its batch. Activation and gradient temporaries live on the
/// thread-local KernelArena.
class Mlp {
 public:
  /// One dense layer: out = act(w * in + b); w has shape [fan_out, fan_in].
  struct Layer {
    Matrix w;
    Vector b;
  };

  /// Gradient of the training loss with respect to one layer's parameters.
  struct LayerGrad {
    Matrix dw;
    Vector db;
  };

  Mlp(MlpConfig config, Rng* rng);

  /// Deterministic prediction (no dropout) of a 1-output network for every
  /// row of `x`.
  void PredictBatch(const Matrix& x, Vector* out) const;

  /// Gradient of the scalar output with respect to the input: row i of
  /// `*grad` is the gradient at row i of `x` (grad is Resize()d in place, so
  /// a caller-held matrix is reused across solver iterations without
  /// reallocating). ReLU is subdifferentiable; we use the subgradient 0 at
  /// the kink, which is exactly what the paper's MOGD solver requires. When
  /// `values` is non-null it receives the predictions from the same forward
  /// pass, so the MOGD hot path pays for one forward per Adam iteration
  /// instead of two.
  void InputGradientBatch(const Matrix& x, Matrix* grad,
                          Vector* values = nullptr) const;

  /// MC-dropout: runs `samples` stochastic forward passes and reports, per
  /// row, the mean and standard deviation of the scalar output. Row r's
  /// dropout masks are drawn from (*rngs)[r] in (sample, layer, unit) order,
  /// so a row's estimate depends only on its point and its generator; each
  /// stochastic pass runs as one fused layer kernel per layer over all rows.
  /// `rngs` must hold one generator per row.
  void PredictWithUncertaintyBatch(const Matrix& x, int samples,
                                   std::vector<Rng>* rngs, Vector* mean,
                                   Vector* stddev) const;

  /// Mini-batch forward+backward: writes into `grads` (shaped by ZeroGrads)
  /// the gradient of the mean-squared-error over the batch (plus L2 on the
  /// weights), and returns that loss. Rows of `x` are inputs, `y` holds
  /// scalar targets.
  double ForwardBackward(const Matrix& x, const Vector& y,
                         std::vector<LayerGrad>* grads) const;

  /// Allocates a zeroed gradient structure matching this network's layers.
  std::vector<LayerGrad> ZeroGrads() const;

  /// Flattens all parameters into a single vector (checkpointing).
  Vector Snapshot() const;
  /// Restores parameters from a Snapshot of the same architecture.
  void Restore(const Vector& snapshot);

  std::vector<Layer>& layers() { return layers_; }
  const std::vector<Layer>& layers() const { return layers_; }
  const MlpConfig& config() const { return config_; }
  int input_dim() const { return config_.layer_sizes.front(); }
  int output_dim() const { return config_.layer_sizes.back(); }

 private:
  // Batched forward over arena-owned buffers. Returns the final layer's
  // output buffer [x.rows() x output_dim]; when `post` is non-null it
  // receives each layer's post-activation buffer (the backward pass needs
  // only post-activations: relu's gradient is post > 0, tanh's 1 - post^2).
  // When `masks` is non-null, (*masks)[l] ([x.rows() x fan_out]) multiplies
  // hidden layer l's post-activations (MC-dropout). Buffers live until the
  // caller's KernelArena::Scope unwinds.
  const double* ForwardArena(const Matrix& x, kernels::KernelArena* arena,
                             std::vector<const double*>* post,
                             const std::vector<double*>* masks = nullptr) const;
  // Back-propagates `delta` (d loss / d output, one entry per row, in an
  // arena buffer of x.rows() * MaxWidth() doubles that the pass overwrites)
  // through a ForwardArena pass over `x` whose post-activations are `post`.
  // Writes each layer's weight and bias gradient into `grads` when non-null,
  // and d output / d input ([x.rows() x input_dim]) into `input_grad` when
  // non-null.
  void Backward(const Matrix& x, const std::vector<const double*>& post,
                double* delta, kernels::KernelArena* arena,
                std::vector<LayerGrad>* grads, double* input_grad) const;
  // Widest layer output (the input width excluded).
  size_t MaxWidth() const;

  MlpConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace udao

#endif  // UDAO_NN_MLP_H_
