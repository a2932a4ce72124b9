#include "model/mlp_model.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "common/metrics_registry.h"
#include "common/stats.h"

namespace udao {

namespace {

// Deterministic seed from the query point so MC-dropout estimates are
// reproducible and safe under concurrent callers.
uint64_t SeedFromPoint(const Vector& x) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (double v : x) {
    uint64_t bits = 0;
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

double MlpModel::ToTarget(double y) const {
  if (!config_.log_transform_targets) return y;
  return std::log(std::max(1e-9, y));
}

double MlpModel::FromTarget(double t) const {
  if (!config_.log_transform_targets) return t;
  return std::exp(t);
}

StatusOr<std::shared_ptr<MlpModel>> MlpModel::Fit(const Matrix& x,
                                                  const Vector& y,
                                                  const MlpModelConfig& config,
                                                  Rng* rng) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("MLP fit requires non-empty inputs");
  }
  if (x.rows() != static_cast<int>(y.size())) {
    return Status::InvalidArgument("MLP fit: |x| != |y|");
  }
  MlpConfig net_config;
  net_config.layer_sizes.push_back(x.cols());
  for (int h : config.hidden) net_config.layer_sizes.push_back(h);
  net_config.layer_sizes.push_back(1);
  net_config.activation = config.activation;
  net_config.l2 = config.l2;
  net_config.dropout = config.dropout;
  auto mlp = std::make_unique<Mlp>(net_config, rng);

  Vector t(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    t[i] = config.log_transform_targets ? std::log(std::max(1e-9, y[i]))
                                        : y[i];
  }
  const double y_mean = Mean(t);
  const double y_std = std::max(1e-9, StdDev(t));
  Vector z(t.size());
  for (size_t i = 0; i < t.size(); ++i) z[i] = (t[i] - y_mean) / y_std;
  TrainMlp(mlp.get(), x, z, config.train, rng);
  return std::shared_ptr<MlpModel>(
      new MlpModel(config, std::move(mlp), y_mean, y_std));
}

TrainResult MlpModel::FineTune(const Matrix& x, const Vector& y, int epochs,
                               Rng* rng) {
  UDAO_CHECK_EQ(x.rows(), static_cast<int>(y.size()));
  Vector z(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    z[i] = (ToTarget(y[i]) - y_mean_) / y_std_;
  }
  TrainConfig ft = config_.train;
  ft.epochs = epochs;
  ft.learning_rate = config_.train.learning_rate * 0.1;
  return TrainMlp(mlp_.get(), x, z, ft, rng);
}

std::shared_ptr<MlpModel> MlpModel::Clone() const {
  return std::shared_ptr<MlpModel>(
      new MlpModel(config_, std::make_unique<Mlp>(*mlp_), y_mean_, y_std_));
}

void MlpModel::PredictBatch(const Matrix& x, Vector* out) const {
  // Batched entry points are the GEMM fast path MOGD's lockstep descent
  // lives on; the batch-size histogram is how bench reports show whether
  // batching is actually engaged (avg batch >> 1) or degenerated to scalar.
  // batch_calls is not a separate counter -- it is the histogram's count,
  // and these sites run hot enough that every registry op shows up in the
  // bench_mogd_solver overhead budget.
  UDAO_METRIC_COUNTER_ADD("udao.model.mlp.batch_evals", x.rows());
  UDAO_METRIC_OBSERVE("udao.model.mlp.batch_size",
                      static_cast<double>(x.rows()));
  mlp_->PredictBatch(x, out);
  for (double& v : *out) v = FromTarget(v * y_std_ + y_mean_);
}

void MlpModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                           Vector* stddev) const {
  if (config_.dropout <= 0.0 || config_.mc_samples < 2) {
    PredictBatch(x, mean);
    stddev->assign(x.rows(), 0.0);
    return;
  }
  std::vector<Rng> rngs;
  rngs.reserve(x.rows());
  for (int r = 0; r < x.rows(); ++r) {
    rngs.emplace_back(SeedFromPoint(x.Row(r)));
  }
  UDAO_METRIC_COUNTER_ADD("udao.model.mlp.batch_evals", x.rows());
  UDAO_METRIC_OBSERVE("udao.model.mlp.batch_size",
                      static_cast<double>(x.rows()));
  Vector zm;
  Vector zs;
  mlp_->PredictWithUncertaintyBatch(x, config_.mc_samples, &rngs, &zm, &zs);
  mean->resize(x.rows());
  stddev->resize(x.rows());
  for (int r = 0; r < x.rows(); ++r) {
    const double t_mean = zm[r] * y_std_ + y_mean_;
    const double t_std = zs[r] * y_std_;
    if (config_.log_transform_targets) {
      // Delta method around the log-space mean.
      (*mean)[r] = std::exp(t_mean);
      (*stddev)[r] = (*mean)[r] * t_std;
    } else {
      (*mean)[r] = t_mean;
      (*stddev)[r] = t_std;
    }
  }
}

void MlpModel::GradientBatch(const Matrix& x, Matrix* grads,
                             Vector* values) const {
  UDAO_METRIC_COUNTER_ADD("udao.model.mlp.batch_evals", x.rows());
  UDAO_METRIC_OBSERVE("udao.model.mlp.batch_size",
                      static_cast<double>(x.rows()));
  // Raw-prediction scratch persists across solver iterations; the gradient
  // matrix itself is Resize()d in place by InputGradientBatch, so the steady
  // state of the MOGD loop allocates nothing here.
  thread_local Vector raw;
  mlp_->InputGradientBatch(x, grads, &raw);
  if (values != nullptr) values->resize(raw.size());
  for (int i = 0; i < grads->rows(); ++i) {
    // The prediction is both the value and, under log-space targets, the
    // chain-rule factor of the gradient: one FromTarget serves both.
    const double value = FromTarget(raw[i] * y_std_ + y_mean_);
    if (values != nullptr) (*values)[i] = value;
    double scale = y_std_;
    if (config_.log_transform_targets) scale *= value;
    double* row = grads->RowPtr(i);
    for (int d = 0; d < grads->cols(); ++d) row[d] *= scale;
  }
}

void MlpModel::SerializeTo(std::ostream& out) const {
  out << "udao-mlp-v1\n";
  const auto& sizes = mlp_->config().layer_sizes;
  out << sizes.size();
  for (int s : sizes) out << ' ' << s;
  out << '\n';
  out << static_cast<int>(config_.activation) << ' ' << config_.l2 << ' '
      << config_.dropout << ' ' << config_.mc_samples << ' '
      << (config_.log_transform_targets ? 1 : 0) << '\n';
  out.precision(17);
  out << y_mean_ << ' ' << y_std_ << '\n';
  const Vector snapshot = mlp_->Snapshot();
  out << snapshot.size() << '\n';
  for (double w : snapshot) out << w << ' ';
  out << '\n';
}

StatusOr<std::shared_ptr<MlpModel>> MlpModel::Deserialize(std::istream& in) {
  std::string magic;
  in >> magic;
  if (magic != "udao-mlp-v1") {
    return Status::InvalidArgument("not an MLP checkpoint");
  }
  size_t num_sizes = 0;
  in >> num_sizes;
  if (!in || num_sizes < 2 || num_sizes > 64) {
    return Status::InvalidArgument("corrupt MLP checkpoint header");
  }
  MlpConfig net;
  net.layer_sizes.resize(num_sizes);
  for (int& width : net.layer_sizes) {
    in >> width;
    if (!in || width < 1) {
      return Status::InvalidArgument("corrupt MLP checkpoint layer width");
    }
  }
  MlpModelConfig cfg;
  int activation = 0;
  int log_flag = 0;
  in >> activation >> cfg.l2 >> cfg.dropout >> cfg.mc_samples >> log_flag;
  if (activation != static_cast<int>(Activation::kRelu) &&
      activation != static_cast<int>(Activation::kTanh)) {
    return Status::InvalidArgument("unknown MLP checkpoint activation");
  }
  cfg.activation = static_cast<Activation>(activation);
  cfg.log_transform_targets = log_flag != 0;
  cfg.hidden.assign(net.layer_sizes.begin() + 1, net.layer_sizes.end() - 1);
  net.activation = cfg.activation;
  net.l2 = cfg.l2;
  net.dropout = cfg.dropout;
  double y_mean = 0.0;
  double y_std = 1.0;
  in >> y_mean >> y_std;
  size_t num_weights = 0;
  in >> num_weights;
  constexpr size_t kMaxWeights = size_t{1} << 26;
  if (!in || num_weights > kMaxWeights) {
    return Status::InvalidArgument("corrupt MLP checkpoint body");
  }
  // The header widths imply the parameter count; compare before allocating.
  size_t implied = 0;
  for (size_t l = 0; l + 1 < num_sizes && implied <= kMaxWeights; ++l) {
    const size_t fan_in = static_cast<size_t>(net.layer_sizes[l]);
    const size_t fan_out = static_cast<size_t>(net.layer_sizes[l + 1]);
    implied += fan_out * (fan_in + 1);
  }
  if (implied != num_weights) {
    return Status::InvalidArgument("MLP checkpoint weight count mismatch");
  }
  Vector snapshot(num_weights);
  for (double& w : snapshot) in >> w;
  if (!in) return Status::InvalidArgument("truncated MLP checkpoint");
  Rng rng(0);
  auto mlp = std::make_unique<Mlp>(net, &rng);
  mlp->Restore(snapshot);
  return std::shared_ptr<MlpModel>(
      new MlpModel(cfg, std::move(mlp), y_mean, y_std));
}

}  // namespace udao
