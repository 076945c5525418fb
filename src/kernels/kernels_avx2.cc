// AVX2 tier (compiled with -mavx2 -ffp-contract=off). Lint R12 confines
// raw intrinsics to src/kernels/, and this is the only TU there that has
// them.
//
// Vectorization strategy (DESIGN.md §9): vectorize across *independent
// output elements* — output columns of a matmul/SpMM row, clusters of a
// softmax row, GMM components or k-means centers of a row, columns of an
// M-step sum, elements of an Adam sweep — never across a summation
// chain, and never with FMA (mul+add keeps scalar rounding). Each output
// element therefore accumulates its contributions in exactly the scalar
// order, so every op in this file is bit-identical to the scalar tier.
// Loads and stores are unaligned throughout.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/kernels/kernels.h"

namespace rgae {
namespace kernels {
namespace avx2 {

namespace {

constexpr int kGemmRowBlock = 4;  // Register-accumulator rows per GEMM tile.

/// Strided gather of one column `c` from four consecutive rows of a
/// row-major (rows, stride) block starting at `r0`.
inline __m256d GatherColumn(const double* base, size_t stride, int c) {
  return _mm256_set_pd(base[3 * stride + c], base[2 * stride + c],
                       base[1 * stride + c], base[c]);
}

/// Columns j..n-1 of `mr` rows of out += a·b, one output at a time, each
/// with the ascending k-chain and the aik == 0.0 skip.
void GemmColumnTail(const double* a, const double* b, double* out, int mr,
                    int k, int n, int j) {
  for (; j < n; ++j) {
    for (int r = 0; r < mr; ++r) {
      double s = out[static_cast<size_t>(r) * n + j];
      for (int kk = 0; kk < k; ++kk) {
        const double aik = a[static_cast<size_t>(r) * k + kk];
        if (aik == 0.0) continue;
        s += aik * b[static_cast<size_t>(kk) * n + j];
      }
      out[static_cast<size_t>(r) * n + j] = s;
    }
  }
}

/// `mr` (≤ kGemmRowBlock) rows of a times all of b, accumulated into out
/// over 8-column stripes. Per output element the k-chain is ascending with
/// the aik == 0.0 skip, i.e. scalar::MatMulRow bit for bit. MatMulRow and
/// MatMul's last m % 4 rows use it; GCC 12 keeps its accumulator array on
/// the stack, so full 4-row blocks go through GemmBlock4.
void GemmRowBlock(const double* a, const double* b, double* out, int mr,
                  int k, int n) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d acc[kGemmRowBlock][2];
    for (int r = 0; r < mr; ++r) {
      acc[r][0] = _mm256_loadu_pd(out + static_cast<size_t>(r) * n + j);
      acc[r][1] = _mm256_loadu_pd(out + static_cast<size_t>(r) * n + j + 4);
    }
    for (int kk = 0; kk < k; ++kk) {
      const double* b_row = b + static_cast<size_t>(kk) * n + j;
      const __m256d b0 = _mm256_loadu_pd(b_row);
      const __m256d b1 = _mm256_loadu_pd(b_row + 4);
      for (int r = 0; r < mr; ++r) {
        const double aik = a[static_cast<size_t>(r) * k + kk];
        if (aik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(aik);
        acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(av, b0));
        acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(av, b1));
      }
    }
    for (int r = 0; r < mr; ++r) {
      _mm256_storeu_pd(out + static_cast<size_t>(r) * n + j, acc[r][0]);
      _mm256_storeu_pd(out + static_cast<size_t>(r) * n + j + 4, acc[r][1]);
    }
  }
  GemmColumnTail(a, b, out, mr, k, n, j);
}

/// One row's two accumulators of an 8-column stripe: lo/hi += aik·(b0, b1),
/// a mul then an add, never FMA, skipped when aik == 0.0.
inline void AddRowStripe(__m256d& lo, __m256d& hi, double aik, __m256d b0,
                         __m256d b1) {
  if (aik == 0.0) return;
  const __m256d av = _mm256_set1_pd(aik);
  lo = _mm256_add_pd(lo, _mm256_mul_pd(av, b0));
  hi = _mm256_add_pd(hi, _mm256_mul_pd(av, b1));
}

/// MatMul's 4-row block: rows 0..3 of a (stride k) times b, accumulated
/// into four rows of out (stride n). Each 8-column stripe keeps its eight
/// accumulators in named registers for the whole k loop, like
/// TransBBlock; every output keeps GemmRowBlock's chain.
void GemmBlock4(const double* a, const double* b, double* out, int k, int n) {
  const size_t sk = static_cast<size_t>(k);
  const size_t sn = static_cast<size_t>(n);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    double* o = out + j;
    __m256d r0lo = _mm256_loadu_pd(o);
    __m256d r0hi = _mm256_loadu_pd(o + 4);
    __m256d r1lo = _mm256_loadu_pd(o + sn);
    __m256d r1hi = _mm256_loadu_pd(o + sn + 4);
    __m256d r2lo = _mm256_loadu_pd(o + 2 * sn);
    __m256d r2hi = _mm256_loadu_pd(o + 2 * sn + 4);
    __m256d r3lo = _mm256_loadu_pd(o + 3 * sn);
    __m256d r3hi = _mm256_loadu_pd(o + 3 * sn + 4);
    const double* b_row = b + j;
    for (int kk = 0; kk < k; ++kk, b_row += sn) {
      const __m256d b0 = _mm256_loadu_pd(b_row);
      const __m256d b1 = _mm256_loadu_pd(b_row + 4);
      AddRowStripe(r0lo, r0hi, a[kk], b0, b1);
      AddRowStripe(r1lo, r1hi, a[sk + kk], b0, b1);
      AddRowStripe(r2lo, r2hi, a[2 * sk + kk], b0, b1);
      AddRowStripe(r3lo, r3hi, a[3 * sk + kk], b0, b1);
    }
    _mm256_storeu_pd(o, r0lo);
    _mm256_storeu_pd(o + 4, r0hi);
    _mm256_storeu_pd(o + sn, r1lo);
    _mm256_storeu_pd(o + sn + 4, r1hi);
    _mm256_storeu_pd(o + 2 * sn, r2lo);
    _mm256_storeu_pd(o + 2 * sn + 4, r2hi);
    _mm256_storeu_pd(o + 3 * sn, r3lo);
    _mm256_storeu_pd(o + 3 * sn + 4, r3hi);
  }
  GemmColumnTail(a, b, out, kGemmRowBlock, k, n, j);
}

}  // namespace

void MatMulRow(const double* a_row, const double* b, double* out_row, int k,
               int n) {
  GemmRowBlock(a_row, b, out_row, 1, k, n);
}

void MatMul(const double* a, const double* b, double* out, int m, int k,
            int n) {
  int i = 0;
  for (; i + kGemmRowBlock <= m; i += kGemmRowBlock) {
    GemmBlock4(a + static_cast<size_t>(i) * k, b,
               out + static_cast<size_t>(i) * n, k, n);
  }
  if (i < m) {
    GemmRowBlock(a + static_cast<size_t>(i) * k, b,
                 out + static_cast<size_t>(i) * n, m - i, k, n);
  }
}

void MatMulTransA(const double* a, const double* b, double* out, int k, int m,
                  int n) {
  // Scalar loop structure (k outer) with the j sweep widened to 4 lanes;
  // each out element still sees its k-contributions in ascending order.
  for (int kk = 0; kk < k; ++kk) {
    const double* a_row = a + static_cast<size_t>(kk) * m;
    const double* b_row = b + static_cast<size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const double aki = a_row[i];
      if (aki == 0.0) continue;
      double* out_row = out + static_cast<size_t>(i) * n;
      const __m256d av = _mm256_set1_pd(aki);
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m256d o = _mm256_loadu_pd(out_row + j);
        const __m256d bv = _mm256_loadu_pd(b_row + j);
        _mm256_storeu_pd(out_row + j,
                         _mm256_add_pd(o, _mm256_mul_pd(av, bv)));
      }
      for (; j < n; ++j) out_row[j] += aki * b_row[j];
    }
  }
}

namespace {

/// One row of MatMulTransB from output column `j` on: four dot products
/// (four b rows) per vector, with b's columns gathered one element at a
/// time, then the last n % 4 columns one by one.
void TransBRow(const double* a_row, const double* b, double* out_row, int k,
               int n, int j) {
  for (; j + 4 <= n; j += 4) {
    const double* b_block = b + static_cast<size_t>(j) * k;
    __m256d acc = _mm256_setzero_pd();
    for (int kk = 0; kk < k; ++kk) {
      const __m256d av = _mm256_set1_pd(a_row[kk]);
      const __m256d bv = GatherColumn(b_block, k, kk);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
    }
    _mm256_storeu_pd(out_row + j, acc);
  }
  for (; j < n; ++j) {
    const double* b_row = b + static_cast<size_t>(j) * k;
    double s = 0.0;
    for (int kk = 0; kk < k; ++kk) s += a_row[kk] * b_row[kk];
    out_row[j] = s;
  }
}

/// Four accumulators, one per row of a 4-row block: a TransBBlock's a
/// rows, or the x rows of a GMM log-joint or k-means distance block.
/// Named members and unrolled updates keep them in registers: GCC 12 left
/// an accumulator array updated in loops on the stack, a load, add and
/// store per step, and the block ran no faster than the gathering row
/// code.
struct RowAcc4 {
  __m256d r0, r1, r2, r3;
};

/// acc.rX += a(X, kk) · bv for the four a rows starting at `a`, stride
/// `sk`: a mul, then an add, never FMA.
inline void AddColumn(RowAcc4& acc, const double* a, size_t sk, int kk,
                      __m256d bv) {
  const double* ak = a + kk;
  acc.r0 = _mm256_add_pd(acc.r0, _mm256_mul_pd(_mm256_broadcast_sd(ak), bv));
  acc.r1 = _mm256_add_pd(acc.r1,
                         _mm256_mul_pd(_mm256_broadcast_sd(ak + sk), bv));
  acc.r2 = _mm256_add_pd(acc.r2,
                         _mm256_mul_pd(_mm256_broadcast_sd(ak + 2 * sk), bv));
  acc.r3 = _mm256_add_pd(acc.r3,
                         _mm256_mul_pd(_mm256_broadcast_sd(ak + 3 * sk), bv));
}

/// The 4×4 register block of MatMulTransB: rows i..i+3 of a against rows
/// j..j+3 of b, one accumulator per a row holding its four outputs. Each
/// step transposes a 4×4 block of b in registers, so lane c of column t
/// is b(j + c, kk + t); the last k % 4 columns are gathered.
void TransBBlock(const double* a, const double* b, double* out, int k, int n) {
  RowAcc4 acc = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                 _mm256_setzero_pd(), _mm256_setzero_pd()};
  const size_t sk = static_cast<size_t>(k);
  int kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const __m256d b0 = _mm256_loadu_pd(b + kk);
    const __m256d b1 = _mm256_loadu_pd(b + sk + kk);
    const __m256d b2 = _mm256_loadu_pd(b + 2 * sk + kk);
    const __m256d b3 = _mm256_loadu_pd(b + 3 * sk + kk);
    const __m256d lo01 = _mm256_unpacklo_pd(b0, b1);  // b0[0] b1[0] b0[2] b1[2]
    const __m256d hi01 = _mm256_unpackhi_pd(b0, b1);  // b0[1] b1[1] b0[3] b1[3]
    const __m256d lo23 = _mm256_unpacklo_pd(b2, b3);
    const __m256d hi23 = _mm256_unpackhi_pd(b2, b3);
    AddColumn(acc, a, sk, kk, _mm256_permute2f128_pd(lo01, lo23, 0x20));
    AddColumn(acc, a, sk, kk + 1, _mm256_permute2f128_pd(hi01, hi23, 0x20));
    AddColumn(acc, a, sk, kk + 2, _mm256_permute2f128_pd(lo01, lo23, 0x31));
    AddColumn(acc, a, sk, kk + 3, _mm256_permute2f128_pd(hi01, hi23, 0x31));
  }
  for (; kk < k; ++kk) AddColumn(acc, a, sk, kk, GatherColumn(b, sk, kk));
  const size_t sn = static_cast<size_t>(n);
  _mm256_storeu_pd(out, acc.r0);
  _mm256_storeu_pd(out + sn, acc.r1);
  _mm256_storeu_pd(out + 2 * sn, acc.r2);
  _mm256_storeu_pd(out + 3 * sn, acc.r3);
}

}  // namespace

void MatMulTransB(const double* a, const double* b, double* out, int m, int k,
                  int n) {
  // 4×4 register blocks cover rows and columns in steps of four; the last
  // n % 4 columns of those rows and the last m % 4 rows go row by row.
  // Every output element keeps the scalar chain: +0.0, then mul and add
  // for ascending k, never FMA. The blocks only interleave independent
  // chains, so the bits match the scalar tier. Nothing is allocated.
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a_block = a + static_cast<size_t>(i) * k;
    double* out_block = out + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      TransBBlock(a_block, b + static_cast<size_t>(j) * k, out_block + j, k,
                  n);
    }
    for (int r = 0; r < 4; ++r) {
      TransBRow(a_block + static_cast<size_t>(r) * k, b,
                out_block + static_cast<size_t>(r) * n, k, n, j);
    }
  }
  for (; i < m; ++i) {
    TransBRow(a + static_cast<size_t>(i) * k, b,
              out + static_cast<size_t>(i) * n, k, n, 0);
  }
}

void SpmmRow(const int* cols, const double* vals, int count, const double* x,
             int x_cols, double* out_row) {
  int c = 0;
  for (; c + 8 <= x_cols; c += 8) {
    __m256d acc0 = _mm256_loadu_pd(out_row + c);
    __m256d acc1 = _mm256_loadu_pd(out_row + c + 4);
    for (int k = 0; k < count; ++k) {
      const __m256d vv = _mm256_set1_pd(vals[k]);
      const double* x_row = x + static_cast<size_t>(cols[k]) * x_cols + c;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(vv, _mm256_loadu_pd(x_row)));
      acc1 = _mm256_add_pd(acc1,
                           _mm256_mul_pd(vv, _mm256_loadu_pd(x_row + 4)));
    }
    _mm256_storeu_pd(out_row + c, acc0);
    _mm256_storeu_pd(out_row + c + 4, acc1);
  }
  for (; c < x_cols; ++c) {
    double s = out_row[c];
    for (int k = 0; k < count; ++k) {
      s += vals[k] * x[static_cast<size_t>(cols[k]) * x_cols + c];
    }
    out_row[c] = s;
  }
}

void Spmm(const int* row_ptr, const int* col_idx, const double* vals,
          int rows, const double* x, int x_cols, double* out) {
  for (int r = 0; r < rows; ++r) {
    SpmmRow(col_idx + row_ptr[r], vals + row_ptr[r],
            row_ptr[r + 1] - row_ptr[r], x, x_cols,
            out + static_cast<size_t>(r) * x_cols);
  }
}

void SpmmScatter(const int* row_ptr, const int* col_idx, const double* vals,
                 int rows, const double* x, int x_cols, double* out) {
  for (int r = 0; r < rows; ++r) {
    const double* x_row = x + static_cast<size_t>(r) * x_cols;
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const __m256d vv = _mm256_set1_pd(vals[k]);
      double* out_row = out + static_cast<size_t>(col_idx[k]) * x_cols;
      int c = 0;
      for (; c + 4 <= x_cols; c += 4) {
        const __m256d o = _mm256_loadu_pd(out_row + c);
        const __m256d xv = _mm256_loadu_pd(x_row + c);
        _mm256_storeu_pd(out_row + c,
                         _mm256_add_pd(o, _mm256_mul_pd(vv, xv)));
      }
      for (; c < x_cols; ++c) out_row[c] += vals[k] * x_row[c];
    }
  }
}

void StudentT(const double* z, int n, int d, const double* centers, int k,
              double* p) {
  const __m256d ones = _mm256_set1_pd(1.0);
  for (int i = 0; i < n; ++i) {
    const double* z_row = z + static_cast<size_t>(i) * d;
    double* p_row = p + static_cast<size_t>(i) * k;
    int j = 0;
    // Four clusters in flight; each (i,j) distance chain runs over c in
    // scalar order.
    for (; j + 4 <= k; j += 4) {
      const double* c_block = centers + static_cast<size_t>(j) * d;
      __m256d dist = _mm256_setzero_pd();
      for (int c = 0; c < d; ++c) {
        const __m256d zv = _mm256_set1_pd(z_row[c]);
        const __m256d cv = GatherColumn(c_block, d, c);
        const __m256d diff = _mm256_sub_pd(zv, cv);
        dist = _mm256_add_pd(dist, _mm256_mul_pd(diff, diff));
      }
      const __m256d u = _mm256_div_pd(ones, _mm256_add_pd(ones, dist));
      _mm256_storeu_pd(p_row + j, u);
    }
    for (; j < k; ++j) {
      const double* c_row = centers + static_cast<size_t>(j) * d;
      double dist = 0.0;
      for (int c = 0; c < d; ++c) {
        const double diff = z_row[c] - c_row[c];
        dist += diff * diff;
      }
      p_row[j] = 1.0 / (1.0 + dist);
    }
    double sum = 0.0;
    for (int jj = 0; jj < k; ++jj) sum += p_row[jj];
    for (int jj = 0; jj < k; ++jj) p_row[jj] /= sum;
  }
}

void Gaussian(const double* z, int n, int d, const double* centers,
              const double* variances, int k, double* p) {
  const __m256d eps = _mm256_set1_pd(1e-6);
  const __m256d half = _mm256_set1_pd(-0.5);
  for (int i = 0; i < n; ++i) {
    const double* z_row = z + static_cast<size_t>(i) * d;
    double* p_row = p + static_cast<size_t>(i) * k;
    int j = 0;
    for (; j + 4 <= k; j += 4) {
      const double* c_block = centers + static_cast<size_t>(j) * d;
      const double* v_block = variances + static_cast<size_t>(j) * d;
      __m256d s = _mm256_setzero_pd();
      for (int c = 0; c < d; ++c) {
        const __m256d zv = _mm256_set1_pd(z_row[c]);
        const __m256d diff = _mm256_sub_pd(zv, GatherColumn(c_block, d, c));
        const __m256d sq = _mm256_mul_pd(diff, diff);
        // max(eps, var) returns a NaN variance, as std::max(var, 1e-6) does.
        const __m256d var = _mm256_max_pd(eps, GatherColumn(v_block, d, c));
        s = _mm256_add_pd(s, _mm256_div_pd(sq, var));
      }
      _mm256_storeu_pd(p_row + j, _mm256_mul_pd(half, s));
    }
    for (; j < k; ++j) {
      const double* c_row = centers + static_cast<size_t>(j) * d;
      const double* v_row = variances + static_cast<size_t>(j) * d;
      double s = 0.0;
      for (int c = 0; c < d; ++c) {
        const double diff = z_row[c] - c_row[c];
        s += diff * diff / std::max(v_row[c], 1e-6);
      }
      p_row[j] = -0.5 * s;
    }
    double row_max = -1e300;
    for (int jj = 0; jj < k; ++jj) row_max = std::max(row_max, p_row[jj]);
    double sum = 0.0;
    for (int jj = 0; jj < k; ++jj) {
      p_row[jj] = std::exp(p_row[jj] - row_max);
      sum += p_row[jj];
    }
    for (int jj = 0; jj < k; ++jj) p_row[jj] /= sum;
  }
}

void AdamStep(double* value, const double* grad, double* m1, double* m2,
              int64_t n, double beta1, double beta2, double lr, double eps,
              double bc1, double bc2) {
  const __m256d b1v = _mm256_set1_pd(beta1);
  const __m256d b2v = _mm256_set1_pd(beta2);
  const __m256d c1v = _mm256_set1_pd(1.0 - beta1);
  const __m256d c2v = _mm256_set1_pd(1.0 - beta2);
  const __m256d bc1v = _mm256_set1_pd(bc1);
  const __m256d bc2v = _mm256_set1_pd(bc2);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d m1v = _mm256_add_pd(
        _mm256_mul_pd(b1v, _mm256_loadu_pd(m1 + i)), _mm256_mul_pd(c1v, g));
    _mm256_storeu_pd(m1 + i, m1v);
    // ((1-β₂)·g)·g, left to right, matching the scalar expression.
    const __m256d m2v =
        _mm256_add_pd(_mm256_mul_pd(b2v, _mm256_loadu_pd(m2 + i)),
                      _mm256_mul_pd(_mm256_mul_pd(c2v, g), g));
    _mm256_storeu_pd(m2 + i, m2v);
    const __m256d mhat = _mm256_div_pd(m1v, bc1v);
    const __m256d vhat = _mm256_div_pd(m2v, bc2v);
    const __m256d upd = _mm256_div_pd(
        _mm256_mul_pd(lrv, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), epsv));
    _mm256_storeu_pd(value + i, _mm256_sub_pd(_mm256_loadu_pd(value + i),
                                              upd));
  }
  for (; i < n; ++i) {
    m1[i] = beta1 * m1[i] + (1.0 - beta1) * grad[i];
    m2[i] = beta2 * m2[i] + (1.0 - beta2) * grad[i] * grad[i];
    const double mhat = m1[i] / bc1;
    const double vhat = m2[i] / bc2;
    value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

namespace {

/// Pointers to the rows r0..r0+3 of a row-major (rows, stride) matrix.
/// Rows past the last are clamped to it, so a partial block reads only
/// valid memory and its extra lanes repeat the last row; the callers
/// drop those lanes.
inline void BlockRows(const double* base, size_t stride, int r0, int rows,
                      const double* out[4]) {
  for (int t = 0; t < 4; ++t) {
    out[t] = base + static_cast<size_t>(std::min(r0 + t, rows - 1)) * stride;
  }
}

/// Columns j..j+3 of four rows, transposed in registers as TransBBlock
/// does: lane t of cu is rows[t][j + u].
struct Columns4 {
  __m256d c0, c1, c2, c3;
};

inline Columns4 TransposeColumns(const double* const rows[4], int j) {
  const __m256d b0 = _mm256_loadu_pd(rows[0] + j);
  const __m256d b1 = _mm256_loadu_pd(rows[1] + j);
  const __m256d b2 = _mm256_loadu_pd(rows[2] + j);
  const __m256d b3 = _mm256_loadu_pd(rows[3] + j);
  const __m256d lo01 = _mm256_unpacklo_pd(b0, b1);
  const __m256d hi01 = _mm256_unpackhi_pd(b0, b1);
  const __m256d lo23 = _mm256_unpacklo_pd(b2, b3);
  const __m256d hi23 = _mm256_unpackhi_pd(b2, b3);
  return {_mm256_permute2f128_pd(lo01, lo23, 0x20),
          _mm256_permute2f128_pd(hi01, hi23, 0x20),
          _mm256_permute2f128_pd(lo01, lo23, 0x31),
          _mm256_permute2f128_pd(hi01, hi23, 0x31)};
}

/// Column j of four rows, one element at a time (the last d % 4 columns).
inline __m256d GatherRows(const double* const rows[4], int j) {
  return _mm256_set_pd(rows[3][j], rows[2][j], rows[1][j], rows[0][j]);
}

/// acc - ((0.5·diff)·diff) / var with diff = x - mean, x broadcast.
inline __m256d LogJointTerm(__m256d acc, const double* x, __m256d mean,
                            __m256d var) {
  const __m256d diff = _mm256_sub_pd(_mm256_broadcast_sd(x), mean);
  const __m256d t =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), diff), diff);
  return _mm256_sub_pd(acc, _mm256_div_pd(t, var));
}

/// Column j of a log-joint block, for each of its four x rows. `var` is
/// already floored.
inline void LogJointColumn(RowAcc4& acc, const double* const x_rows[4], int j,
                           __m256d mean, __m256d var) {
  acc.r0 = LogJointTerm(acc.r0, x_rows[0] + j, mean, var);
  acc.r1 = LogJointTerm(acc.r1, x_rows[1] + j, mean, var);
  acc.r2 = LogJointTerm(acc.r2, x_rows[2] + j, mean, var);
  acc.r3 = LogJointTerm(acc.r3, x_rows[3] + j, mean, var);
}

/// acc + diff·diff with diff = x - center, x broadcast.
inline __m256d DistanceTerm(__m256d acc, const double* x, __m256d center) {
  const __m256d diff = _mm256_sub_pd(_mm256_broadcast_sd(x), center);
  return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
}

inline void DistanceColumn(RowAcc4& acc, const double* const x_rows[4],
                           int j, __m256d center) {
  acc.r0 = DistanceTerm(acc.r0, x_rows[0] + j, center);
  acc.r1 = DistanceTerm(acc.r1, x_rows[1] + j, center);
  acc.r2 = DistanceTerm(acc.r2, x_rows[2] + j, center);
  acc.r3 = DistanceTerm(acc.r3, x_rows[3] + j, center);
}

/// Writes the first `lanes` lanes of v to dst[0..lanes).
inline void StoreLanes(double* dst, __m256d v, int lanes) {
  if (lanes == 4) {
    _mm256_storeu_pd(dst, v);
    return;
  }
  alignas(32) double tmp[4];
  _mm256_store_pd(tmp, v);
  for (int t = 0; t < lanes; ++t) dst[t] = tmp[t];
}

/// The nearest-center scan over the first `lanes` lanes of one row's
/// distances to centers c0.., ascending, with the scalar tier's strict <
/// (so a tie keeps the lower center and a NaN distance never wins),
/// written as a select.
inline void ArgminLanes(__m256d dist, int c0, int lanes, double* best,
                        int* best_c) {
  alignas(32) double tmp[4];
  _mm256_store_pd(tmp, dist);
  double b = *best;
  int bc = *best_c;
  for (int t = 0; t < lanes; ++t) {
    const bool take = tmp[t] < b;
    b = take ? tmp[t] : b;
    bc = take ? c0 + t : bc;
  }
  *best = b;
  *best_c = bc;
}

/// Mask selecting the first `lanes` (1..4) lanes.
inline __m256i LaneMask(int lanes) {
  return _mm256_set_epi64x(lanes > 3 ? -1 : 0, lanes > 2 ? -1 : 0,
                           lanes > 1 ? -1 : 0, -1);
}

/// The M-step's sums for one component over 16 columns of x: out(16) =
/// Σ_i r_i·x_i(16), ascending i from +0.0, with x_i = x + i·stride and
/// r_i = r[i·r_stride]. The four accumulators stay in registers.
inline void MeanSums16(const double* x, size_t stride, const double* r,
                       size_t r_stride, int n, double* out) {
  __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
  for (int i = 0; i < n; ++i, x += stride, r += r_stride) {
    const __m256d rv = _mm256_broadcast_sd(r);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(rv, _mm256_loadu_pd(x)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(rv, _mm256_loadu_pd(x + 4)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(rv, _mm256_loadu_pd(x + 8)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(rv, _mm256_loadu_pd(x + 12)));
  }
  _mm256_storeu_pd(out, a0);
  _mm256_storeu_pd(out + 4, a1);
  _mm256_storeu_pd(out + 8, a2);
  _mm256_storeu_pd(out + 12, a3);
}

/// MeanSums16 for four columns.
inline void MeanSums4(const double* x, size_t stride, const double* r,
                      size_t r_stride, int n, double* out) {
  __m256d a = _mm256_setzero_pd();
  for (int i = 0; i < n; ++i, x += stride, r += r_stride) {
    a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_broadcast_sd(r),
                                       _mm256_loadu_pd(x)));
  }
  _mm256_storeu_pd(out, a);
}

/// (r·diff)·diff with diff = x - mean, a mul, a mul and no FMA.
inline __m256d WeightedSquare(__m256d rv, __m256d x, __m256d mean) {
  const __m256d diff = _mm256_sub_pd(x, mean);
  return _mm256_mul_pd(_mm256_mul_pd(rv, diff), diff);
}

/// The variance sums for one component over 16 columns: out(16) =
/// Σ_i (r_i·diff)·diff with diff = x_i - mean, ascending i from +0.0.
inline void VarianceSums16(const double* x, size_t stride, const double* r,
                           size_t r_stride, int n, const double* mean,
                           double* out) {
  const __m256d m0 = _mm256_loadu_pd(mean), m1 = _mm256_loadu_pd(mean + 4),
                m2 = _mm256_loadu_pd(mean + 8),
                m3 = _mm256_loadu_pd(mean + 12);
  __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
  for (int i = 0; i < n; ++i, x += stride, r += r_stride) {
    const __m256d rv = _mm256_broadcast_sd(r);
    a0 = _mm256_add_pd(a0, WeightedSquare(rv, _mm256_loadu_pd(x), m0));
    a1 = _mm256_add_pd(a1, WeightedSquare(rv, _mm256_loadu_pd(x + 4), m1));
    a2 = _mm256_add_pd(a2, WeightedSquare(rv, _mm256_loadu_pd(x + 8), m2));
    a3 = _mm256_add_pd(a3, WeightedSquare(rv, _mm256_loadu_pd(x + 12), m3));
  }
  _mm256_storeu_pd(out, a0);
  _mm256_storeu_pd(out + 4, a1);
  _mm256_storeu_pd(out + 8, a2);
  _mm256_storeu_pd(out + 12, a3);
}

/// VarianceSums16 for four columns.
inline void VarianceSums4(const double* x, size_t stride, const double* r,
                          size_t r_stride, int n, const double* mean,
                          double* out) {
  const __m256d m = _mm256_loadu_pd(mean);
  __m256d a = _mm256_setzero_pd();
  for (int i = 0; i < n; ++i, x += stride, r += r_stride) {
    a = _mm256_add_pd(
        a, WeightedSquare(_mm256_broadcast_sd(r), _mm256_loadu_pd(x), m));
  }
  _mm256_storeu_pd(out, a);
}

}  // namespace

void GmmLogJoint(const double* x, int n, int d, const double* means,
                 const double* variances, const double* log_norm, int k,
                 double* lj) {
  // Blocks of four rows by four components. Each lane's chain starts at
  // its log_norm and subtracts ascending j as in the scalar tier; the
  // component columns are transposed once per block and column step.
  // max(floor, var) keeps a NaN variance, as std::max(var, floor) does.
  const __m256d floor = _mm256_set1_pd(kGmmVarianceFloor);
  for (int c0 = 0; c0 < k; c0 += 4) {
    const double* m_rows[4];
    const double* v_rows[4];
    BlockRows(means, d, c0, k, m_rows);
    BlockRows(variances, d, c0, k, v_rows);
    const int lanes = std::min(4, k - c0);
    const __m256d norm = _mm256_set_pd(
        log_norm[std::min(c0 + 3, k - 1)], log_norm[std::min(c0 + 2, k - 1)],
        log_norm[std::min(c0 + 1, k - 1)], log_norm[c0]);
    for (int i0 = 0; i0 < n; i0 += 4) {
      const double* x_rows[4];
      BlockRows(x, d, i0, n, x_rows);
      RowAcc4 acc = {norm, norm, norm, norm};
      int j = 0;
      for (; j + 4 <= d; j += 4) {
        const Columns4 m = TransposeColumns(m_rows, j);
        const Columns4 v = TransposeColumns(v_rows, j);
        LogJointColumn(acc, x_rows, j, m.c0, _mm256_max_pd(floor, v.c0));
        LogJointColumn(acc, x_rows, j + 1, m.c1, _mm256_max_pd(floor, v.c1));
        LogJointColumn(acc, x_rows, j + 2, m.c2, _mm256_max_pd(floor, v.c2));
        LogJointColumn(acc, x_rows, j + 3, m.c3, _mm256_max_pd(floor, v.c3));
      }
      for (; j < d; ++j) {
        LogJointColumn(acc, x_rows, j, GatherRows(m_rows, j),
                       _mm256_max_pd(floor, GatherRows(v_rows, j)));
      }
      const int rows = std::min(4, n - i0);
      double* out = lj + static_cast<size_t>(i0) * k + c0;
      const __m256d row_acc[4] = {acc.r0, acc.r1, acc.r2, acc.r3};
      for (int r = 0; r < rows; ++r) {
        StoreLanes(out + static_cast<size_t>(r) * k, row_acc[r], lanes);
      }
    }
  }
}

void GmmMStep(const double* x, int n, int d, const double* resp, int k,
              double min_variance, double* nk, double* means,
              double* variances) {
  // Each sum of the scalar tier, in its order: one component at a time,
  // every row in ascending order into register accumulators, 16 columns
  // at a time, then four, then one. nk runs four components to a vector.
  const size_t sd = static_cast<size_t>(d);
  const size_t sk = static_cast<size_t>(k);
  for (int c0 = 0; c0 < k; c0 += 4) {
    const int lanes = std::min(4, k - c0);
    const __m256i mask = LaneMask(lanes);
    __m256d sum = _mm256_setzero_pd();
    for (int i = 0; i < n; ++i) {
      sum = _mm256_add_pd(sum, _mm256_maskload_pd(resp + i * sk + c0, mask));
    }
    StoreLanes(nk + c0, sum, lanes);
  }
  for (int c = 0; c < k; ++c) {
    nk[c] = std::max(nk[c], 1e-10);
    const double* r = resp + c;
    double* m_row = means + c * sd;
    int j = 0;
    for (; j + 16 <= d; j += 16) MeanSums16(x + j, sd, r, sk, n, m_row + j);
    for (; j + 4 <= d; j += 4) MeanSums4(x + j, sd, r, sk, n, m_row + j);
    for (; j < d; ++j) {
      double s = 0.0;
      for (int i = 0; i < n; ++i) s += r[i * sk] * x[i * sd + j];
      m_row[j] = s;
    }
    for (j = 0; j < d; ++j) m_row[j] /= nk[c];
  }
  for (int c = 0; c < k; ++c) {
    const double* r = resp + c;
    const double* m_row = means + c * sd;
    double* v_row = variances + c * sd;
    int j = 0;
    for (; j + 16 <= d; j += 16) {
      VarianceSums16(x + j, sd, r, sk, n, m_row + j, v_row + j);
    }
    for (; j + 4 <= d; j += 4) {
      VarianceSums4(x + j, sd, r, sk, n, m_row + j, v_row + j);
    }
    for (; j < d; ++j) {
      double s = 0.0;
      for (int i = 0; i < n; ++i) {
        const double diff = x[i * sd + j] - m_row[j];
        s += r[i * sk] * diff * diff;
      }
      v_row[j] = s;
    }
    for (j = 0; j < d; ++j) {
      v_row[j] = std::max(min_variance, v_row[j] / nk[c]);
    }
  }
}

void NearestCenter(const double* x, int n, int d, const double* centers,
                   int k, int* assign, double* best) {
  // Blocks of four rows by four centers, each lane's distance chain over
  // ascending j from +0.0; the centers' columns are transposed once per
  // block and column step. The argmin runs per row over ascending c.
  for (int i0 = 0; i0 < n; i0 += 4) {
    const double* x_rows[4];
    BlockRows(x, d, i0, n, x_rows);
    double best_dist[4];
    int best_c[4] = {0, 0, 0, 0};
    for (double& b : best_dist) b = std::numeric_limits<double>::max();
    for (int c0 = 0; c0 < k; c0 += 4) {
      const double* c_rows[4];
      BlockRows(centers, d, c0, k, c_rows);
      const __m256d zero = _mm256_setzero_pd();
      RowAcc4 acc = {zero, zero, zero, zero};
      int j = 0;
      for (; j + 4 <= d; j += 4) {
        const Columns4 col = TransposeColumns(c_rows, j);
        DistanceColumn(acc, x_rows, j, col.c0);
        DistanceColumn(acc, x_rows, j + 1, col.c1);
        DistanceColumn(acc, x_rows, j + 2, col.c2);
        DistanceColumn(acc, x_rows, j + 3, col.c3);
      }
      for (; j < d; ++j) DistanceColumn(acc, x_rows, j, GatherRows(c_rows, j));
      const int lanes = std::min(4, k - c0);
      ArgminLanes(acc.r0, c0, lanes, &best_dist[0], &best_c[0]);
      ArgminLanes(acc.r1, c0, lanes, &best_dist[1], &best_c[1]);
      ArgminLanes(acc.r2, c0, lanes, &best_dist[2], &best_c[2]);
      ArgminLanes(acc.r3, c0, lanes, &best_dist[3], &best_c[3]);
    }
    const int rows = std::min(4, n - i0);
    for (int r = 0; r < rows; ++r) {
      assign[i0 + r] = best_c[r];
      if (best != nullptr) best[i0 + r] = best_dist[r];
    }
  }
}

}  // namespace avx2
}  // namespace kernels
}  // namespace rgae
