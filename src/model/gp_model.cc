#include "model/gp_model.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "common/stats.h"
#include "nn/adam.h"

namespace udao {

namespace {

constexpr double kLogTwoPi = 1.8378770664093453;

// Inverts an SPD matrix from its lower Cholesky factor.
Matrix InverseFromCholesky(const Matrix& l) {
  const int n = l.rows();
  Matrix inv(n, n);
  for (int col = 0; col < n; ++col) {
    Vector e(n, 0.0);
    e[col] = 1.0;
    Vector y = SolveLowerTriangular(l, e);
    Vector x = SolveUpperTriangularFromLower(l, y);
    for (int row = 0; row < n; ++row) inv(row, col) = x[row];
  }
  return inv;
}

}  // namespace

double GpModel::Kernel(const double* a, const double* b) const {
  double quad = 0.0;
  for (int d = 0; d < x_.cols(); ++d) {
    const double diff = (a[d] - b[d]) / lengthscales_[d];
    quad += diff * diff;
  }
  return signal_var_ * std::exp(-0.5 * quad);
}

Matrix GpModel::KernelMatrix(const Matrix& x) const {
  UDAO_CHECK_EQ(x.cols(), x_.cols());
  Matrix k(x.rows(), x_.rows());
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    double* out = k.RowPtr(i);
    for (int j = 0; j < x_.rows(); ++j) out[j] = Kernel(row, x_.RowPtr(j));
  }
  return k;
}

bool GpModel::Refactorize() {
  const int n = x_.rows();
  Matrix k(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double v = Kernel(x_.RowPtr(i), x_.RowPtr(j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  double jitter = jitter_;
  for (int attempt = 0; attempt < 8; ++attempt) {
    Matrix kj = k;
    for (int i = 0; i < n; ++i) kj(i, i) += noise_var_ + jitter;
    StatusOr<Matrix> chol = CholeskyFactor(kj);
    if (chol.ok()) {
      chol_ = std::move(*chol);
      Vector y = SolveLowerTriangular(chol_, z_);
      alpha_ = SolveUpperTriangularFromLower(chol_, y);
      double logdet = 0.0;
      for (int i = 0; i < n; ++i) logdet += std::log(chol_(i, i));
      lml_ = -0.5 * Dot(z_, alpha_) - logdet - 0.5 * n * kLogTwoPi;
      jitter_ = jitter;
      return true;
    }
    jitter = std::max(jitter * 10.0, 1e-10);
  }
  return false;
}

StatusOr<std::shared_ptr<GpModel>> GpModel::Fit(const Matrix& x,
                                                const Vector& y,
                                                const GpConfig& config) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("GP fit requires non-empty inputs");
  }
  if (x.rows() != static_cast<int>(y.size())) {
    return Status::InvalidArgument("GP fit: |x| != |y|");
  }
  auto gp = std::shared_ptr<GpModel>(new GpModel());
  gp->x_ = x;
  gp->log_targets_ = config.log_transform_targets;
  Vector t(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    t[i] = gp->log_targets_ ? std::log(std::max(1e-9, y[i])) : y[i];
  }
  gp->y_mean_ = Mean(t);
  gp->y_std_ = std::max(1e-9, StdDev(t));
  gp->z_.resize(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    gp->z_[i] = (t[i] - gp->y_mean_) / gp->y_std_;
  }
  const int d = x.cols();
  gp->lengthscales_.assign(d, config.init_lengthscale);
  gp->signal_var_ = config.init_signal_var;
  gp->noise_var_ = config.init_noise_var;
  gp->jitter_ = config.jitter;
  if (!gp->Refactorize()) {
    return Status::NumericalError("GP kernel not factorizable");
  }

  // Maximize log marginal likelihood over log-hyperparameters with Adam.
  // Parameter layout: [log l_1..log l_m, log sigma_f^2, log sigma_n^2],
  // m = d for ARD, 1 otherwise.
  const int m = config.ard ? d : 1;
  const int n = x.rows();
  if (config.hyper_opt_steps > 0) {
    Vector theta(m + 2);
    for (int i = 0; i < m; ++i) theta[i] = std::log(config.init_lengthscale);
    theta[m] = std::log(config.init_signal_var);
    theta[m + 1] = std::log(config.init_noise_var);
    Adam adam(m + 2, AdamConfig{.learning_rate = config.hyper_learning_rate});
    Vector best_theta = theta;
    double best_lml = gp->lml_;

    for (int step = 0; step < config.hyper_opt_steps; ++step) {
      // W = alpha alpha^T - K^{-1}; dL/dtheta_j = 0.5 tr(W dK/dtheta_j).
      Matrix kinv = InverseFromCholesky(gp->chol_);
      Vector grad(m + 2, 0.0);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          const double w =
              gp->alpha_[i] * gp->alpha_[j] - kinv(i, j);
          const double kij = gp->Kernel(gp->x_.RowPtr(i), gp->x_.RowPtr(j));
          // log-lengthscales: dk/dlog l_d = k * r_d^2 / l_d^2.
          for (int dd = 0; dd < d; ++dd) {
            const double diff = gp->x_(i, dd) - gp->x_(j, dd);
            const double term =
                kij * diff * diff /
                (gp->lengthscales_[dd] * gp->lengthscales_[dd]);
            grad[config.ard ? dd : 0] += 0.5 * w * term;
          }
          // log signal variance: dK = K_signal.
          grad[m] += 0.5 * w * kij;
          // log noise variance: dK = sigma_n^2 I.
          if (i == j) grad[m + 1] += 0.5 * w * gp->noise_var_;
        }
      }
      // Ascent: Adam minimizes, so negate.
      for (double& g : grad) g = -g;
      adam.Step(&theta, grad);
      // Clamp to sane ranges to keep the kernel well conditioned.
      for (int i = 0; i < m; ++i) {
        theta[i] = std::clamp(theta[i], std::log(1e-2), std::log(1e2));
      }
      theta[m] = std::clamp(theta[m], std::log(1e-3), std::log(1e3));
      theta[m + 1] = std::clamp(theta[m + 1], std::log(1e-6), std::log(1.0));

      for (int dd = 0; dd < d; ++dd) {
        gp->lengthscales_[dd] = std::exp(theta[config.ard ? dd : 0]);
      }
      gp->signal_var_ = std::exp(theta[m]);
      gp->noise_var_ = std::exp(theta[m + 1]);
      if (!gp->Refactorize()) break;
      if (gp->lml_ > best_lml) {
        best_lml = gp->lml_;
        best_theta = theta;
      }
    }
    // Restore the best hyperparameters seen.
    for (int dd = 0; dd < d; ++dd) {
      gp->lengthscales_[dd] = std::exp(best_theta[config.ard ? dd : 0]);
    }
    gp->signal_var_ = std::exp(best_theta[m]);
    gp->noise_var_ = std::exp(best_theta[m + 1]);
    if (!gp->Refactorize()) {
      return Status::NumericalError("GP kernel not factorizable after fit");
    }
  }
  return gp;
}

void GpModel::PredictBatch(const Matrix& x, Vector* out) const {
  const Matrix k = KernelMatrix(x);
  const Vector acc = k.Apply(alpha_);
  out->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    const double t = acc[i] * y_std_ + y_mean_;
    (*out)[i] = log_targets_ ? std::exp(t) : t;
    UDAO_DCHECK_FINITE((*out)[i]);
  }
}

void GpModel::GradientBatch(const Matrix& x, Matrix* grads,
                            Vector* values) const {
  const Matrix k = KernelMatrix(x);
  const Vector acc = k.Apply(alpha_);
  grads->Resize(x.rows(), x_.cols());
  std::fill(grads->data().begin(), grads->data().end(), 0.0);
  if (values != nullptr) values->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    const double* krow = k.RowPtr(i);
    const double* xrow = x.RowPtr(i);
    double* grow = grads->RowPtr(i);
    for (int j = 0; j < x_.rows(); ++j) {
      const double w = alpha_[j] * krow[j];
      const double* train = x_.RowPtr(j);
      for (int d = 0; d < x_.cols(); ++d) {
        grow[d] += w * (train[d] - xrow[d]) /
                   (lengthscales_[d] * lengthscales_[d]);
      }
    }
    const double t = acc[i] * y_std_ + y_mean_;
    double scale = y_std_;
    if (log_targets_) scale *= std::exp(t);
    for (int d = 0; d < x_.cols(); ++d) {
      grow[d] *= scale;
      UDAO_DCHECK_FINITE(grow[d]);
    }
    if (values != nullptr) {
      (*values)[i] = log_targets_ ? std::exp(t) : t;
      UDAO_DCHECK_FINITE((*values)[i]);
    }
  }
}

void GpModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                          Vector* stddev) const {
  const Matrix k = KernelMatrix(x);
  mean->resize(x.rows());
  stddev->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    const Vector ki = k.Row(i);
    const double t_mean = Dot(ki, alpha_) * y_std_ + y_mean_;
    const Vector v = SolveLowerTriangular(chol_, ki);
    const double var = std::max(0.0, signal_var_ + noise_var_ - Dot(v, v));
    const double t_std = std::sqrt(var) * y_std_;
    if (log_targets_) {
      (*mean)[i] = std::exp(t_mean);
      (*stddev)[i] = (*mean)[i] * t_std;
    } else {
      (*mean)[i] = t_mean;
      (*stddev)[i] = t_std;
    }
    UDAO_DCHECK_FINITE((*mean)[i]);
    UDAO_DCHECK_FINITE((*stddev)[i]);
  }
}

void GpModel::SerializeTo(std::ostream& out) const {
  out << "udao-gp-v1\n";
  out << x_.rows() << ' ' << x_.cols() << ' ' << (log_targets_ ? 1 : 0)
      << '\n';
  out.precision(17);
  out << y_mean_ << ' ' << y_std_ << ' ' << signal_var_ << ' ' << noise_var_
      << ' ' << jitter_ << '\n';
  for (double l : lengthscales_) out << l << ' ';
  out << '\n';
  for (int r = 0; r < x_.rows(); ++r) {
    for (int c = 0; c < x_.cols(); ++c) out << x_(r, c) << ' ';
    out << z_[r] << '\n';
  }
}

StatusOr<std::shared_ptr<GpModel>> GpModel::Deserialize(std::istream& in) {
  std::string magic;
  in >> magic;
  if (magic != "udao-gp-v1") {
    return Status::InvalidArgument("not a GP checkpoint");
  }
  int rows = 0;
  int cols = 0;
  int log_flag = 0;
  in >> rows >> cols >> log_flag;
  if (!in || rows <= 0 || cols <= 0 || rows > (1 << 20) || cols > 4096) {
    return Status::InvalidArgument("corrupt GP checkpoint header");
  }
  auto gp = std::shared_ptr<GpModel>(new GpModel());
  gp->log_targets_ = log_flag != 0;
  in >> gp->y_mean_ >> gp->y_std_ >> gp->signal_var_ >> gp->noise_var_ >>
      gp->jitter_;
  gp->lengthscales_.resize(cols);
  for (double& l : gp->lengthscales_) in >> l;
  gp->x_ = Matrix(rows, cols);
  gp->z_.resize(rows);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) in >> gp->x_(r, c);
    in >> gp->z_[r];
  }
  if (!in) return Status::InvalidArgument("truncated GP checkpoint");
  if (!gp->Refactorize()) {
    return Status::NumericalError("GP checkpoint kernel not factorizable");
  }
  return gp;
}

}  // namespace udao
