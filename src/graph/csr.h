#ifndef RGAE_GRAPH_CSR_H_
#define RGAE_GRAPH_CSR_H_

#include <utility>
#include <vector>

#include "src/tensor/matrix.h"

namespace rgae {

/// A weighted edge (row, col, value) used to assemble sparse matrices.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Compressed-sparse-row matrix of doubles.
///
/// This is the graph-operator workhorse: adjacency matrices, normalized
/// graph filters à = D^-1/2 (A+I) D^-1/2, and clustering/self-supervision
/// graphs are all CsrMatrix instances. Rows are kept sorted by column which
/// makes membership tests O(log deg) and merging deterministic.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicate (row,col) entries are summed.
  static CsrMatrix FromTriplets(int rows, int cols,
                                std::vector<Triplet> triplets);

  /// Takes a CSR layout that is already valid: `row_ptr` holds rows + 1
  /// non-decreasing offsets from 0 to nnz, and each row's columns are
  /// strictly ascending in [0, cols). Checked by assert only.
  static CsrMatrix FromSortedRows(int rows, int cols, std::vector<int> row_ptr,
                                  std::vector<int> col_idx,
                                  std::vector<double> values);

  /// Stores the entries of `dense` that are != 0.0, row-major: 0.0 and
  /// -0.0 are dropped, NaN and ±inf are kept. A product over the result
  /// adds the same terms in the same order as the zero-skipping dense
  /// matmul over `dense`, so `Spmm` matches `MatMul` and `SpmmScatter`
  /// matches `MatMulTransA` bit for bit (DESIGN.md §9).
  static CsrMatrix FromDense(const Matrix& dense);

  /// Identity matrix of the given size.
  static CsrMatrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Number of stored (structural) non-zeros.
  int nnz() const { return static_cast<int>(values_.size()); }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Number of stored entries in row `r`.
  int RowNnz(int r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// Value at (r, c); 0 if not stored. O(log deg(r)).
  double At(int r, int c) const;
  /// True if (r, c) is a stored entry.
  bool Contains(int r, int c) const { return FindIndex(r, c) >= 0; }

  /// Column indices of row `r` (sorted ascending).
  std::vector<int> RowCols(int r) const;

  /// Dense product: this * x. Shapes: (m,n)x(n,d) -> (m,d).
  Matrix Multiply(const Matrix& x) const;
  /// Dense product with the transpose: thisᵀ * x. Shapes: (m,n)ᵀ x(m,d) -> (n,d).
  Matrix MultiplyTransposed(const Matrix& x) const;

  /// Row sums (weighted out-degrees).
  std::vector<double> RowSums() const;

  /// Returns D^-1/2 * this * D^-1/2 where D = diag(row sums). Rows with zero
  /// sum are left as zero rows. The matrix must be square.
  CsrMatrix SymmetricallyNormalized() const;

  /// Returns this + identity (adds 1.0 to each diagonal entry, stored or
  /// not); square only. Merges the diagonal into each row in one pass and
  /// gives the bits of `FromTriplets` over the entries plus the diagonal.
  CsrMatrix AddSelfLoops() const;

  /// Returns a dense copy; intended for small matrices and tests.
  Matrix ToDense() const;

  /// Returns all stored entries as triplets.
  std::vector<Triplet> ToTriplets() const;

  /// Structural + numeric equality.
  bool operator==(const CsrMatrix& other) const;

 private:
  // Index into values_/col_idx_ for entry (r, c), or -1 if absent.
  int FindIndex(int r, int c) const;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_ = {0};
  std::vector<int> col_idx_;
  std::vector<double> values_;
};

}  // namespace rgae

#endif  // RGAE_GRAPH_CSR_H_
