#include "nn/train.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "nn/adam.h"

namespace udao {

TrainResult TrainMlp(Mlp* mlp, const Matrix& x, const Vector& y,
                     const TrainConfig& config, Rng* rng) {
  UDAO_CHECK_EQ(x.rows(), static_cast<int>(y.size()));
  UDAO_CHECK_GT(x.rows(), 0);
  const int n = x.rows();
  const int batch_size = std::min(config.batch_size, n);

  // Each layer's w and b step in place. Parameter i in Snapshot() order
  // (w0, b0, w1, b1, ...) keeps moment slot i, and the step counter moves
  // once per mini-batch, so a step equals one Adam::Step over the flattened
  // parameters, bit for bit.
  std::vector<Mlp::Layer>& layers = mlp->layers();
  size_t num_params = 0;
  for (const Mlp::Layer& layer : layers) {
    num_params += layer.w.data().size() + layer.b.size();
  }
  Adam adam(num_params, AdamConfig{.learning_rate = config.learning_rate});

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);

  TrainResult result;
  result.best_loss = std::numeric_limits<double>::infinity();
  // Checkpoint assignment reuses the copy's buffers, so keeping the best
  // weights allocates only here.
  std::vector<Mlp::Layer> best = layers;
  int since_best = 0;
  // ForwardBackward overwrites every entry, so one allocation serves all
  // mini-batches; bx and by are resized only for a short last batch.
  std::vector<Mlp::LayerGrad> grads = mlp->ZeroGrads();
  Matrix bx(batch_size, x.cols());
  Vector by(batch_size);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int num_batches = 0;
    for (int start = 0; start < n; start += batch_size) {
      const int end = std::min(start + batch_size, n);
      bx.Resize(end - start, x.cols());
      by.resize(end - start);
      for (int i = start; i < end; ++i) {
        const int src = order[i];
        std::copy(x.RowPtr(src), x.RowPtr(src) + x.cols(),
                  bx.RowPtr(i - start));
        by[i - start] = y[src];
      }
      epoch_loss += mlp->ForwardBackward(bx, by, &grads);
      ++num_batches;
      adam.BeginStep();
      size_t offset = 0;
      for (size_t l = 0; l < layers.size(); ++l) {
        Vector& w = layers[l].w.data();
        Vector& b = layers[l].b;
        adam.Update(offset, w.data(), grads[l].dw.data().data(),
                    static_cast<int>(w.size()));
        offset += w.size();
        adam.Update(offset, b.data(), grads[l].db.data(),
                    static_cast<int>(b.size()));
        offset += b.size();
      }
    }
    epoch_loss /= std::max(1, num_batches);
    result.final_loss = epoch_loss;
    result.epochs_run = epoch + 1;
    if (epoch_loss < result.best_loss) {
      result.best_loss = epoch_loss;
      best = layers;
      since_best = 0;
    } else if (config.early_stop_patience > 0 &&
               ++since_best >= config.early_stop_patience) {
      break;
    }
  }
  layers = best;
  return result;
}

}  // namespace udao
