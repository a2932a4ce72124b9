#ifndef UDAO_MODEL_MLP_MODEL_H_
#define UDAO_MODEL_MLP_MODEL_H_

#include <iosfwd>
#include <memory>

#include "model/objective_model.h"
#include "nn/mlp.h"
#include "nn/train.h"

namespace udao {

/// Training settings for a DNN objective model.
struct MlpModelConfig {
  /// Hidden layer widths; the paper's largest model is 4 x 128 ReLU.
  std::vector<int> hidden = {64, 64};
  Activation activation = Activation::kRelu;
  double l2 = 1e-4;
  double dropout = 0.1;
  TrainConfig train;
  /// MC-dropout samples for uncertainty estimates.
  int mc_samples = 32;
  /// Train on log targets and predict exp(.): guarantees positive
  /// predictions and multiplicative error, the right geometry for latency /
  /// cost / throughput objectives spanning orders of magnitude.
  bool log_transform_targets = false;
};

/// DNN objective model (modeling option 2 in Section II-B): an Mlp trained on
/// runtime traces, with target standardization, analytic input gradients for
/// MOGD, and MC-dropout predictive uncertainty. Uncertainty sampling is
/// seeded from the query point, making Predict* deterministic and
/// thread-safe.
class MlpModel : public ObjectiveModel {
 public:
  /// Trains a fresh model on rows of `x` against targets `y`.
  static StatusOr<std::shared_ptr<MlpModel>> Fit(const Matrix& x,
                                                 const Vector& y,
                                                 const MlpModelConfig& config,
                                                 Rng* rng);

  /// Continues training the existing network on new data with a reduced
  /// learning rate -- the model server's "small trace update" fine-tune path.
  TrainResult FineTune(const Matrix& x, const Vector& y, int epochs, Rng* rng);

  /// Deep copy (network weights included). The model server fine-tunes a
  /// clone and swaps it in, so previously served handles stay immutable.
  std::shared_ptr<MlpModel> Clone() const;

  // Inference rides the batched forward/backward in nn/mlp.cc; MOGD's
  // lockstep multistart loop enters here. MC-dropout seeds row r's masks
  // from row r's coordinates while running each stochastic pass as one fused
  // kernel over all rows, so a point's estimate is the same in any batch.
  void PredictBatch(const Matrix& x, Vector* out) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  int input_dim() const override { return mlp_->input_dim(); }
  std::string Name() const override { return "dnn"; }

  const Mlp& mlp() const { return *mlp_; }
  const MlpModelConfig& config() const { return config_; }

  /// Writes architecture, target transform and weights as portable text.
  void SerializeTo(std::ostream& out) const;
  /// Rebuilds a model from SerializeTo output.
  static StatusOr<std::shared_ptr<MlpModel>> Deserialize(std::istream& in);

 private:
  MlpModel(MlpModelConfig config, std::unique_ptr<Mlp> mlp, double y_mean,
           double y_std)
      : config_(std::move(config)), mlp_(std::move(mlp)), y_mean_(y_mean),
        y_std_(y_std) {}

  // Target transform helpers (identity unless log_transform_targets).
  double ToTarget(double y) const;
  double FromTarget(double t) const;

  MlpModelConfig config_;
  std::unique_ptr<Mlp> mlp_;
  double y_mean_;
  double y_std_;
};

}  // namespace udao

#endif  // UDAO_MODEL_MLP_MODEL_H_
