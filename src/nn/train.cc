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

  Vector params = mlp->Snapshot();
  Adam adam(static_cast<int>(params.size()),
            AdamConfig{.learning_rate = config.learning_rate});

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);

  TrainResult result;
  result.best_loss = std::numeric_limits<double>::infinity();
  Vector best_snapshot = params;
  int since_best = 0;
  // ForwardBackward overwrites every entry, so one allocation serves all
  // mini-batches.
  std::vector<Mlp::LayerGrad> grads = mlp->ZeroGrads();

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int num_batches = 0;
    for (int start = 0; start < n; start += batch_size) {
      const int end = std::min(start + batch_size, n);
      Matrix bx(end - start, x.cols());
      Vector by(end - start);
      for (int i = start; i < end; ++i) {
        const int src = order[i];
        for (int c = 0; c < x.cols(); ++c) bx(i - start, c) = x(src, c);
        by[i - start] = y[src];
      }
      epoch_loss += mlp->ForwardBackward(bx, by, &grads);
      ++num_batches;
      // Flatten gradients in the same order as Snapshot().
      Vector flat;
      flat.reserve(params.size());
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

}  // namespace udao
