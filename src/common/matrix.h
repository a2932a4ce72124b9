#ifndef UDAO_COMMON_MATRIX_H_
#define UDAO_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace udao {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles with the small linear-algebra kernel UDAO
/// needs: products, transposes, Cholesky factorization, and triangular solves.
/// Built from scratch; GP regression, LASSO, and the MLP run on top of it.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    UDAO_CHECK_GE(rows, 0);
    UDAO_CHECK_GE(cols, 0);
  }

  /// Builds a matrix from nested initializer data (rows of equal length).
  static Matrix FromRows(const std::vector<Vector>& rows);
  /// Identity matrix of size n.
  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Reshapes to rows x cols, reusing the existing allocation when capacity
  /// allows (std::vector never shrinks its capacity here). Contents are
  /// unspecified afterwards -- callers that need zeros must fill. This is
  /// what lets per-iteration solver temporaries stop hitting the heap.
  void Resize(int rows, int cols) {
    UDAO_CHECK_GE(rows, 0);
    UDAO_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  double& operator()(int r, int c) {
    UDAO_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    UDAO_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  const double* RowPtr(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  double* RowPtr(int r) {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  Vector Row(int r) const;

  Matrix Transpose() const;
  Matrix Multiply(const Matrix& other) const;
  /// Matrix-vector product A*v.
  Vector Apply(const Vector& v) const;
  /// Transposed matrix-vector product A^T * v.
  Vector ApplyTranspose(const Vector& v) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
/// Fails with NumericalError when the matrix is not (numerically) SPD.
StatusOr<Matrix> CholeskyFactor(const Matrix& a);

/// Solves L*x = b where L is lower triangular (forward substitution).
Vector SolveLowerTriangular(const Matrix& l, const Vector& b);

/// Solves L^T*x = b where L is lower triangular (back substitution).
Vector SolveUpperTriangularFromLower(const Matrix& l, const Vector& b);

/// Solves the SPD system A*x = b via Cholesky: x = A^{-1} b.
StatusOr<Vector> SolveSpd(const Matrix& a, const Vector& b);

/// Dot product; the two vectors must have equal length.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& v);

/// Squared Euclidean distance between two equal-length vectors.
double SquaredDistance(const Vector& a, const Vector& b);

}  // namespace udao

#endif  // UDAO_COMMON_MATRIX_H_
