#include "common/matrix.h"

#include <cmath>

#include "nn/kernels.h"

// The dense products below route through the runtime-dispatched kernel table
// (nn/kernels.h). The scalar backend replicates this file's original loops
// bitwise; the avx2 backend vectorizes them. Every consumer -- GP algebra,
// the MLP passes, the per-sample test references -- shifts backend together,
// which is what keeps the codebase's exact-equality contracts intact in
// either mode.

namespace udao {

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    UDAO_CHECK_EQ(rows[r].size(), rows[0].size());
    for (int c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(int r) const {
  UDAO_CHECK(r >= 0 && r < rows_);
  return Vector(RowPtr(r), RowPtr(r) + cols_);
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  UDAO_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  // i-k-j order with zero-coefficient skips, delegated to the kernel table's
  // gemm_nn (which owns zeroing the output rows).
  kernels::GemmNn(data_.data(), rows_, cols_, other.data_.data(), other.cols_,
                  out.data_.data());
  return out;
}

Vector Matrix::Apply(const Vector& v) const {
  UDAO_CHECK_EQ(static_cast<int>(v.size()), cols_);
  Vector out(rows_, 0.0);
  const kernels::KernelTable* t = kernels::ActiveTable();
  for (int r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    out[r] = t->dot(row, v.data(), cols_);
  }
  return out;
}

Vector Matrix::ApplyTranspose(const Vector& v) const {
  UDAO_CHECK_EQ(static_cast<int>(v.size()), rows_);
  Vector out(cols_, 0.0);
  const kernels::KernelTable* t = kernels::ActiveTable();
  for (int r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    t->axpy(out.data(), RowPtr(r), vr, cols_);
  }
  return out;
}

StatusOr<Matrix> CholeskyFactor(const Matrix& a) {
  UDAO_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  Matrix l(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (int k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::NumericalError(
              "Cholesky failed: matrix is not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

Vector SolveLowerTriangular(const Matrix& l, const Vector& b) {
  const int n = l.rows();
  UDAO_CHECK_EQ(n, l.cols());
  UDAO_CHECK_EQ(static_cast<int>(b.size()), n);
  Vector x(n);
  for (int i = 0; i < n; ++i) {
    double sum = b[i];
    for (int k = 0; k < i; ++k) sum -= l(i, k) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

Vector SolveUpperTriangularFromLower(const Matrix& l, const Vector& b) {
  const int n = l.rows();
  UDAO_CHECK_EQ(n, l.cols());
  UDAO_CHECK_EQ(static_cast<int>(b.size()), n);
  Vector x(n);
  for (int i = n - 1; i >= 0; --i) {
    double sum = b[i];
    for (int k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

StatusOr<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  StatusOr<Matrix> l = CholeskyFactor(a);
  if (!l.ok()) return l.status();
  Vector y = SolveLowerTriangular(*l, b);
  return SolveUpperTriangularFromLower(*l, y);
}

double Dot(const Vector& a, const Vector& b) {
  UDAO_CHECK_EQ(a.size(), b.size());
  return kernels::Dot(a.data(), b.data(), static_cast<int>(a.size()));
}

double Norm2(const Vector& v) { return std::sqrt(Dot(v, v)); }

double SquaredDistance(const Vector& a, const Vector& b) {
  UDAO_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace udao
