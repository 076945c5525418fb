#include "src/graph/csr.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols,
                                  std::vector<Triplet> triplets) {
  assert(rows >= 0 && cols >= 0);
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      assert(triplets[i].col >= 0 && triplets[i].col < cols);
      double v = triplets[i].value;
      const int c = triplets[i].col;
      ++i;
      // Merge duplicates.
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
    m.row_ptr_[r + 1] = static_cast<int>(m.col_idx_.size());
  }
  assert(i == triplets.size());  // All rows must be within [0, rows).
  return m;
}

CsrMatrix CsrMatrix::FromSortedRows(int rows, int cols,
                                    std::vector<int> row_ptr,
                                    std::vector<int> col_idx,
                                    std::vector<double> values) {
  assert(rows >= 0 && cols >= 0);
  assert(row_ptr.size() == static_cast<size_t>(rows) + 1 && row_ptr[0] == 0);
  assert(col_idx.size() == values.size() &&
         static_cast<size_t>(row_ptr[rows]) == col_idx.size());
#ifndef NDEBUG
  for (int r = 0; r < rows; ++r) {
    assert(row_ptr[r] <= row_ptr[r + 1]);
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      assert(col_idx[k] >= 0 && col_idx[k] < cols);
      assert(k == row_ptr[r] || col_idx[k - 1] < col_idx[k]);
    }
  }
#endif
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  CsrMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.resize(static_cast<size_t>(m.rows_) + 1);
  // Branch-free compaction of each row into scratch: every entry is
  // written, and the cursor advances only past a non-zero. A skip branch
  // would mispredict at nearly every non-zero of a sparse row.
  std::vector<int> cols(m.cols_);
  std::vector<double> vals(m.cols_);
  for (int r = 0; r < m.rows_; ++r) {
    const double* row = dense.data() + static_cast<size_t>(r) * m.cols_;
    int n = 0;
    for (int c = 0; c < m.cols_; ++c) {
      cols[n] = c;
      vals[n] = row[c];
      n += row[c] != 0.0;  // Also drops -0.0; NaN != 0.0 is kept.
    }
    m.col_idx_.insert(m.col_idx_.end(), cols.begin(), cols.begin() + n);
    m.values_.insert(m.values_.end(), vals.begin(), vals.begin() + n);
    m.row_ptr_[r + 1] = static_cast<int>(m.values_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::Identity(int n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (int i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(t));
}

int CsrMatrix::FindIndex(int r, int c) const {
  assert(r >= 0 && r < rows_);
  const int begin = row_ptr_[r];
  const int end = row_ptr_[r + 1];
  const auto it = std::lower_bound(col_idx_.begin() + begin,
                                   col_idx_.begin() + end, c);
  if (it == col_idx_.begin() + end || *it != c) return -1;
  return static_cast<int>(it - col_idx_.begin());
}

double CsrMatrix::At(int r, int c) const {
  const int idx = FindIndex(r, c);
  return idx < 0 ? 0.0 : values_[idx];
}

std::vector<int> CsrMatrix::RowCols(int r) const {
  return std::vector<int>(col_idx_.begin() + row_ptr_[r],
                          col_idx_.begin() + row_ptr_[r + 1]);
}

Matrix CsrMatrix::Multiply(const Matrix& x) const {
  RGAE_TIMED_KERNEL("kernel.spmm");
  // Cost model: 2 flops per stored entry per output column; bytes = the
  // stored values once plus one x-row read and the dense output.
  RGAE_KERNEL_WORK("kernel.spmm", 2LL * nnz() * x.cols(),
                   8LL * (nnz() + static_cast<int64_t>(nnz()) * x.cols() +
                          static_cast<int64_t>(rows_) * x.cols()));
  assert(cols_ == x.rows());
  Matrix out(rows_, x.cols());
  kernels::Spmm(row_ptr_.data(), col_idx_.data(), values_.data(), rows_,
                x.data(), x.cols(), out.data());
  return out;
}

Matrix CsrMatrix::MultiplyTransposed(const Matrix& x) const {
  RGAE_TIMED_KERNEL("kernel.spmm");
  RGAE_KERNEL_WORK("kernel.spmm", 2LL * nnz() * x.cols(),
                   8LL * (nnz() + static_cast<int64_t>(nnz()) * x.cols() +
                          static_cast<int64_t>(cols_) * x.cols()));
  assert(rows_ == x.rows());
  Matrix out(cols_, x.cols());
  kernels::SpmmScatter(row_ptr_.data(), col_idx_.data(), values_.data(),
                       rows_, x.data(), x.cols(), out.data());
  return out;
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) sums[r] += values_[k];
  }
  return sums;
}

CsrMatrix CsrMatrix::SymmetricallyNormalized() const {
  assert(rows_ == cols_);
  const std::vector<double> deg = RowSums();
  std::vector<double> inv_sqrt(rows_, 0.0);
  for (int i = 0; i < rows_; ++i) {
    if (deg[i] > 0.0) inv_sqrt[i] = 1.0 / std::sqrt(deg[i]);
  }
  CsrMatrix out = *this;
  for (int r = 0; r < rows_; ++r) {
    for (int k = out.row_ptr_[r]; k < out.row_ptr_[r + 1]; ++k) {
      out.values_[k] *= inv_sqrt[r] * inv_sqrt[out.col_idx_[k]];
    }
  }
  return out;
}

CsrMatrix CsrMatrix::AddSelfLoops() const {
  assert(rows_ == cols_);
  CsrMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_.resize(static_cast<size_t>(rows_) + 1);
  out.col_idx_.reserve(col_idx_.size() + rows_);
  out.values_.reserve(values_.size() + rows_);
  for (int r = 0; r < rows_; ++r) {
    int k = row_ptr_[r];
    const int end = row_ptr_[r + 1];
    for (; k < end && col_idx_[k] < r; ++k) {
      out.col_idx_.push_back(col_idx_[k]);
      out.values_.push_back(values_[k]);
    }
    // A stored diagonal entry v becomes v + 1.0, the sum FromTriplets
    // forms for the duplicate (r, r).
    double diagonal = 1.0;
    if (k < end && col_idx_[k] == r) diagonal = values_[k++] + 1.0;
    out.col_idx_.push_back(r);
    out.values_.push_back(diagonal);
    out.col_idx_.insert(out.col_idx_.end(), col_idx_.begin() + k,
                        col_idx_.begin() + end);
    out.values_.insert(out.values_.end(), values_.begin() + k,
                       values_.begin() + end);
    out.row_ptr_[r + 1] = static_cast<int>(out.col_idx_.size());
  }
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) = values_[k];
    }
  }
  return out;
}

std::vector<Triplet> CsrMatrix::ToTriplets() const {
  std::vector<Triplet> t;
  t.reserve(values_.size());
  for (int r = 0; r < rows_; ++r) {
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({r, col_idx_[k], values_[k]});
    }
  }
  return t;
}

bool CsrMatrix::operator==(const CsrMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         row_ptr_ == other.row_ptr_ && col_idx_ == other.col_idx_ &&
         values_ == other.values_;
}

}  // namespace rgae
