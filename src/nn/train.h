#ifndef UDAO_NN_TRAIN_H_
#define UDAO_NN_TRAIN_H_

#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "nn/mlp.h"

namespace udao {

/// Settings for mini-batch training of an Mlp.
struct TrainConfig {
  int epochs = 200;
  int batch_size = 32;
  double learning_rate = 1e-3;
  /// When > 0, stop after this many epochs without improvement on the
  /// (training) loss; checkpoints the best weights seen (the paper's model
  /// server "checkpoints the best model weights").
  int early_stop_patience = 0;
};

/// Outcome of a training run.
struct TrainResult {
  double final_loss = 0.0;
  double best_loss = 0.0;
  int epochs_run = 0;
};

/// Trains `mlp` in place on rows of `x` against scalar targets `y` with Adam,
/// restoring the best checkpoint at the end. This is the "retrain" path of
/// the model server; "fine-tuning" simply calls this again on the warm model
/// with a lower learning rate and fewer epochs.
TrainResult TrainMlp(Mlp* mlp, const Matrix& x, const Vector& y,
                     const TrainConfig& config, Rng* rng);

}  // namespace udao

#endif  // UDAO_NN_TRAIN_H_
