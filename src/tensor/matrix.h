#ifndef RGAE_TENSOR_MATRIX_H_
#define RGAE_TENSOR_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "src/kernels/aligned.h"
#include "src/obs/memstat.h"

namespace rgae {

/// Dense row-major matrix of doubles.
///
/// This is the only dense numeric container in the library. It is a plain
/// value type (copyable, movable) with just enough linear algebra for the
/// GAE models: BLAS-free matmul, elementwise kernels, row/column reductions,
/// and row gathering. All shapes are checked with assert() in debug builds.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix initialized to `fill`. The shape-taking
  /// constructors feed the obs memory accounting (fresh buffer demand;
  /// copies and moves are churn, not demand, and are not counted).
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
    assert(rows >= 0 && cols >= 0);
    obs::CountMatrixAlloc(data_.size());
  }

  /// Creates a rows x cols matrix whose entries are left unset, for a
  /// buffer the caller writes in full before reading it (the decoder's σ
  /// cache). Counted by memstat like the filling constructor.
  static Matrix Uninitialized(int rows, int cols) {
    assert(rows >= 0 && cols >= 0);
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(static_cast<size_t>(rows) * cols);
    obs::CountMatrixAlloc(m.data_.size());
    return m;
  }

  /// Creates a matrix from a flat row-major buffer (size must be rows*cols).
  /// The entries are copied into aligned storage.
  Matrix(int rows, int cols, const std::vector<double>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    assert(data_.size() == static_cast<size_t>(rows) * cols);
    obs::CountMatrixAlloc(data_.size());
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Total number of entries.
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  /// Pointer to the start of row `r`.
  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Sets every entry to `v`.
  void Fill(double v);
  /// Sets every entry to zero.
  void Zero() { Fill(0.0); }

  /// In-place entrywise addition; shapes must match.
  Matrix& operator+=(const Matrix& other);
  /// In-place entrywise subtraction; shapes must match.
  Matrix& operator-=(const Matrix& other);
  /// In-place scalar multiply.
  Matrix& operator*=(double s);

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Sum of all entries.
  double Sum() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Squared L2 norm of row `r`.
  double RowSquaredNorm(int r) const;

  /// Returns the matrix restricted to the given rows (in the given order).
  Matrix GatherRows(const std::vector<int>& rows) const;

  /// Human-readable short description, e.g. "Matrix(3x4)".
  std::string ShapeString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  // 64-byte-aligned storage (kernels/aligned.h). No kernel needs the
  // alignment; memstat counts the rounded allocation size.
  kernels::AlignedVector data_;
};

/// out = a * b (standard matrix product). Shapes: (m,k)x(k,n) -> (m,n).
Matrix MatMul(const Matrix& a, const Matrix& b);
/// out = aᵀ * b. Shapes: (k,m)x(k,n) -> (m,n).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// out = a * bᵀ. Shapes: (m,k)x(n,k) -> (m,n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Entrywise sum; shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);
/// Entrywise difference; shapes must match.
Matrix Sub(const Matrix& a, const Matrix& b);
/// Entrywise (Hadamard) product; shapes must match.
Matrix Hadamard(const Matrix& a, const Matrix& b);
/// Scalar multiple.
Matrix Scale(const Matrix& a, double s);

/// Squared Euclidean distance between row `i` of `a` and row `j` of `b`.
double RowSquaredDistance(const Matrix& a, int i, const Matrix& b, int j);

/// Flat dot product of two equally-shaped matrices (vectorized inner product).
double Dot(const Matrix& a, const Matrix& b);

/// Cosine similarity between two equally-shaped matrices viewed as flat
/// vectors. Returns 0 when either norm is ~0.
double CosineSimilarity(const Matrix& a, const Matrix& b);

/// L2-normalizes each row in place; zero rows are left untouched.
void NormalizeRowsL2(Matrix* m);

}  // namespace rgae

#endif  // RGAE_TENSOR_MATRIX_H_
